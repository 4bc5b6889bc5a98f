package cache

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"slices"
	"sync"
)

// The disk layer is one keylog, results.log, in the cache directory; each
// record's payload is a frame: the small fields as Result JSON, then the
// CIF and the four text views, each raw behind a 4-byte length.
const logName = "results.log"

var errBadFrame = errors.New("cache: malformed frame or frame under another key")

// appendFrame appends r's frame to p.
func appendFrame(p []byte, r *Result) ([]byte, error) {
	meta, err := json.Marshal(&Result{Key: r.Key, Chip: r.Chip, Stats: r.Stats, TimesUS: r.TimesUS})
	if err != nil {
		return p, err
	}
	p = slices.Grow(p, 6*4+len(meta)+int(r.cost()))
	p = appendSection(p, meta)
	p = appendSection(p, r.CIF)
	for _, s := range [...]string{r.Sticks, r.Text, r.Block, r.Logical} {
		p = appendSection(p, s)
	}
	return p, nil
}

// framePool recycles frame buffers across disk puts. A buffer goes back
// only after the store's PutDurable has returned, which has then written
// it; the log keeps offsets, never the payload.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

func appendSection[T string | []byte](p []byte, s T) []byte {
	return append(binary.LittleEndian.AppendUint32(p, uint32(len(s))), s...)
}

// decodeFrame rebuilds the Result a frame holds and its LRU cost,
// refusing a malformed frame or one stored under another key.
func decodeFrame(key string, p []byte) (any, int64, error) {
	var sec [6][]byte
	for i := range sec {
		if len(p) < 4 || uint64(binary.LittleEndian.Uint32(p)) > uint64(len(p)-4) {
			return nil, 0, errBadFrame
		}
		n := 4 + int(binary.LittleEndian.Uint32(p))
		sec[i], p = p[4:n], p[n:]
	}
	res := new(Result)
	if len(p) != 0 || json.Unmarshal(sec[0], res) != nil || res.Key != key {
		return nil, 0, errBadFrame
	}
	res.Sticks, res.Text, res.Block, res.Logical = string(sec[2]), string(sec[3]), string(sec[4]), string(sec[5])
	if len(sec[1]) > 0 {
		res.CIF = append([]byte(nil), sec[1]...) // exact size: the read buffer is not kept
	}
	return res, res.cost(), nil
}
