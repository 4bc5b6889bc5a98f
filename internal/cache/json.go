package cache

import (
	"bytes"
	"encoding/json"
	"strings"
)

// Serving a cached Result re-sends the same CIF and sticks text on every
// hit. encoding/json escapes a string byte by byte; AppendJSON skips that
// for representation text whose only byte JSON must escape is '\n' — true
// of every CIF and sticks rendering — and writes it as runs between
// newlines instead.

// plainByte reports whether encoding/json writes a byte of a string as
// itself: printable ASCII other than the quote, the backslash and the
// three bytes it escapes for HTML safety.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// Each representation owns two bits of Result.plain: repKnown once it has
// been classified, repPlain if that classification found it plain.
const (
	repKnown = 1
	repPlain = 2
)

// AppendJSON appends representation rep of r ("cif", "sticks", "text",
// "block" or "logical") to dst as a JSON string: exactly the bytes
// json.Marshal writes for that text as a Go string. A name that is not a
// representation appends the empty string. Whether the text is plain is
// classified on first use and remembered in r.
func (r *Result) AppendJSON(dst []byte, rep string) []byte {
	switch rep {
	case "cif":
		return appendJSON(dst, r, 0, r.CIF, bytes.IndexByte)
	case "sticks":
		return appendJSON(dst, r, 1, r.Sticks, strings.IndexByte)
	case "text":
		return appendJSON(dst, r, 2, r.Text, strings.IndexByte)
	case "block":
		return appendJSON(dst, r, 3, r.Block, strings.IndexByte)
	case "logical":
		return appendJSON(dst, r, 4, r.Logical, strings.IndexByte)
	}
	return append(dst, `""`...)
}

// appendJSON is AppendJSON for the representation in bit slot i of
// r.plain, whose text is s.
func appendJSON[T string | []byte](dst []byte, r *Result, i uint, s T, index func(T, byte) int) []byte {
	shift := 2 * i
	flags := r.plain.Load() >> shift
	if flags&repKnown == 0 {
		flags = repKnown
		if isPlain(s) {
			flags |= repPlain
		}
		for {
			old := r.plain.Load()
			if r.plain.CompareAndSwap(old, old|flags<<shift) {
				break
			}
		}
	}
	if flags&repPlain == 0 {
		b, _ := json.Marshal(string(s)) // a string always marshals
		return append(dst, b...)
	}
	dst = append(dst, '"')
	for {
		n := index(s, '\n')
		if n < 0 {
			break
		}
		dst = append(dst, s[:n]...)
		dst = append(dst, `\n`...)
		s = s[n+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// isPlain reports whether every byte of s is '\n' or a plainByte.
func isPlain[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainByte[c] && c != '\n' {
			return false
		}
	}
	return true
}
