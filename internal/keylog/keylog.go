// Package keylog is the disk layer under both caches (compile results and
// incremental artifacts): one append-only file of keyed records, indexed
// in memory. A put appends to the open file, never creating one; a get is
// a map probe plus one positioned read, so a miss makes no system call.
//
// A record is a header (its own CRC-32C, the payload's length and CRC-32C,
// the 64-hex-digit key) and the payload. Open indexes the headers alone
// and cuts the log at the first bad one, so a tail torn by a crash goes
// and later appends stay readable. Get checks the key and the payload
// checksum on every read and drops a failing record from the index. The
// newest record of a key wins; the log grows without bound. One process
// owns a log: a second writer can clobber indexed records, which fail
// their checks — misses, never a wrong answer.
package keylog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// hdrSize is a record header: header CRC, payload length, payload CRC,
// key.
const hdrSize = 4 + 4 + 4 + 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Log is one open keyed log. A nil *Log is empty: Get misses and Close
// does nothing.
type Log struct {
	f     *os.File
	mu    sync.Mutex // serializes appends; guards end and index
	end   int64      // where the next record goes
	index map[string]record
}

// record locates a payload: its header's offset and the payload length.
type record struct{ off, n int64 }

// validKey reports whether k is a lowercase hex SHA-256, the only key a
// log stores.
func validKey[T string | []byte](k T) bool {
	for i := 0; i < len(k); i++ {
		if c := k[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return len(k) == 64
}

// Open opens (or creates) the log dir/name, creating dir if needed, and
// indexes every record up to the first that fails its header check.
func Open(dir, name string) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("keylog dir: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(dir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, index: make(map[string]record)}
	st, err := f.Stat()
	var h [hdrSize]byte
	for err == nil && l.end+hdrSize <= st.Size() {
		if _, err = f.ReadAt(h[:], l.end); err != nil {
			break
		}
		n, _, ok := header(h[:])
		if !ok || l.end+hdrSize+n > st.Size() {
			break
		}
		l.index[string(h[12:])] = record{l.end, n}
		l.end += hdrSize + n
	}
	if err == nil && l.end < st.Size() {
		err = f.Truncate(l.end)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// header checks a record header and returns its payload length and
// checksum; the key is h[12:hdrSize].
func header(h []byte) (n int64, sum uint32, ok bool) {
	if crc32.Checksum(h[4:hdrSize], castagnoli) != binary.LittleEndian.Uint32(h) || !validKey(h[12:hdrSize]) {
		return 0, 0, false
	}
	return int64(binary.LittleEndian.Uint32(h[4:])), binary.LittleEndian.Uint32(h[8:]), true
}

// Get returns a copy of key's newest payload, or false when the key is
// absent or its record fails a check (the record is then dropped).
func (l *Log) Get(key string) ([]byte, bool) {
	if l == nil {
		return nil, false
	}
	l.mu.Lock()
	at, ok := l.index[key]
	l.mu.Unlock()
	if !ok {
		return nil, false
	}
	buf := make([]byte, hdrSize+at.n)
	if _, err := l.f.ReadAt(buf, at.off); err == nil {
		n, sum, ok := header(buf)
		if ok && n == at.n && string(buf[12:hdrSize]) == key && crc32.Checksum(buf[hdrSize:], castagnoli) == sum {
			return buf[hdrSize:], true
		}
	}
	l.Drop(key)
	return nil, false
}

// Put appends payload as key's newest record. The index points at it
// only once the write has returned; a Get meanwhile waits for the write.
func (l *Log) Put(key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("keylog: invalid key %q", key)
	}
	var h [hdrSize]byte
	binary.LittleEndian.PutUint32(h[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(h[8:], crc32.Checksum(payload, castagnoli))
	copy(h[12:], key)
	binary.LittleEndian.PutUint32(h[:], crc32.Checksum(h[4:], castagnoli))

	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.WriteAt(h[:], l.end); err != nil {
		return err
	}
	if _, err := l.f.WriteAt(payload, l.end+hdrSize); err != nil {
		return err
	}
	l.index[key] = record{l.end, int64(len(payload))}
	l.end += hdrSize + int64(len(payload))
	return nil
}

// Drop forgets key's record, for a payload its reader could not decode.
func (l *Log) Drop(key string) {
	l.mu.Lock()
	delete(l.index, key)
	l.mu.Unlock()
}

// Close closes the log file. Gets and Puts after Close fail.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	return l.f.Close()
}
