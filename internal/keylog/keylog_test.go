package keylog

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func key(i int) string { return fmt.Sprintf("%064x", i) }

func open(t testing.TB, dir string) *Log {
	t.Helper()
	l, err := Open(dir, "test.log")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func TestReopenServesEveryRecord(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 10; i++ {
		if err := l.Put(key(i), bytes.Repeat([]byte{byte(i)}, i*100)); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := l.Get(key(99)); ok {
		t.Fatal("absent key hit")
	}
	l.Close()
	r := open(t, dir)
	for i := 0; i < 10; i++ {
		p, ok := r.Get(key(i))
		if !ok || !bytes.Equal(p, bytes.Repeat([]byte{byte(i)}, i*100)) {
			t.Fatalf("record %d after reopen: %v, %v", i, len(p), ok)
		}
	}
}

// TestBadHeaderTruncates damages the second of three headers: the first
// record survives, the log is cut at the damage, and a new append lands
// there and survives another reopen.
func TestBadHeaderTruncates(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	for i := 0; i < 3; i++ {
		l.Put(key(i), []byte("payload"))
	}
	l.Close()
	path := filepath.Join(dir, "test.log")
	data, _ := os.ReadFile(path)
	rec := hdrSize + len("payload")
	data[rec+20] ^= 1 // a key byte of record 1
	os.WriteFile(path, data, 0o644)

	r := open(t, dir)
	if _, ok := r.Get(key(0)); !ok {
		t.Fatal("record before the damage lost")
	}
	for i := 1; i < 3; i++ {
		if _, ok := r.Get(key(i)); ok {
			t.Fatalf("record %d at or after the damage served", i)
		}
	}
	if st, _ := os.Stat(path); st.Size() != int64(rec) {
		t.Fatalf("log is %d bytes, want it cut to %d", st.Size(), rec)
	}
	r.Put(key(3), []byte("after"))
	r.Close()
	if p, ok := open(t, dir).Get(key(3)); !ok || string(p) != "after" {
		t.Fatalf("append after truncation: %q, %v", p, ok)
	}
}

// TestBadPayloadDropped flips a payload byte under an open log: the Get
// fails its checksum and the record leaves the index.
func TestBadPayloadDropped(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir)
	l.Put(key(0), []byte("payload"))
	path := filepath.Join(dir, "test.log")
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 1
	os.WriteFile(path, data, 0o644)
	if p, ok := l.Get(key(0)); ok {
		t.Fatalf("corrupt payload served: %q", p)
	}
	if _, ok := l.index[key(0)]; ok {
		t.Fatal("corrupt record still indexed")
	}
}

// FuzzDiskLog opens a log over arbitrary bytes. Open must not panic, every
// record it serves must pass its checksums in the file as left, and the
// log must take and keep a new record.
func FuzzDiskLog(f *testing.F) {
	var valid bytes.Buffer
	for i, p := range []string{"", "one", "two records"} {
		var h [hdrSize]byte
		binary.LittleEndian.PutUint32(h[4:], uint32(len(p)))
		binary.LittleEndian.PutUint32(h[8:], crc32.Checksum([]byte(p), castagnoli))
		copy(h[12:], key(i))
		binary.LittleEndian.PutUint32(h[:], crc32.Checksum(h[4:], castagnoli))
		valid.Write(h[:])
		valid.WriteString(p)
	}
	f.Add([]byte{})
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-3])
	flipped := bytes.Clone(valid.Bytes())
	flipped[len(flipped)-2] ^= 0xff
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "test.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, "test.log")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		raw, _ := os.ReadFile(path)
		for k, at := range l.index {
			p, ok := l.Get(k)
			if !ok {
				continue
			}
			h := raw[at.off : at.off+hdrSize]
			n, sum, hok := header(h)
			if !hok || string(h[12:]) != k || n != int64(len(p)) || crc32.Checksum(p, castagnoli) != sum ||
				!bytes.Equal(p, raw[at.off+hdrSize:at.off+hdrSize+n]) {
				t.Fatalf("served a record for %s that fails its checks", k)
			}
		}
		if err := l.Put(key(1<<20), []byte("new")); err != nil {
			t.Fatal(err)
		}
		l.Close()
		r, err := Open(dir, "test.log")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if p, ok := r.Get(key(1 << 20)); !ok || string(p) != "new" {
			t.Fatalf("new record after reopen: %q, %v", p, ok)
		}
	})
}
