package cache

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// FuzzAppendJSON checks Result.AppendJSON against encoding/json: for any
// text in any representation, on the first (classifying) call and on a
// memoized repeat, the appended bytes are exactly json.Marshal of the text
// as a string, and the bytes already in dst are kept.
//
// Seed corpus: testdata/corpus/json/* (CIF and sticks fragments plus
// text with HTML bytes, quotes, control bytes, U+2028/U+2029, non-ASCII
// and invalid UTF-8), added verbatim.
func FuzzAppendJSON(f *testing.F) {
	dir := filepath.Join("..", "..", "testdata", "corpus", "json")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("seed corpus missing: %v", err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, text []byte) {
		want, err := json.Marshal(string(text))
		if err != nil {
			t.Fatal(err)
		}
		s := string(text)
		r := &Result{CIF: text, Sticks: s, Text: s, Block: s, Logical: s}
		for _, rep := range repOrder {
			for call := 0; call < 2; call++ {
				got := r.AppendJSON([]byte("prefix"), rep)
				if string(got) != "prefix"+string(want) {
					t.Fatalf("%s call %d: AppendJSON(%q)\n got %q\nwant %q", rep, call, text, got[len("prefix"):], want)
				}
			}
		}
	})
}

// TestAppendJSONMemoPerRep: classifying one representation must not
// decide another's, whichever is asked for first.
func TestAppendJSONMemoPerRep(t *testing.T) {
	r := &Result{CIF: []byte("B 1 1 0,0;\n"), Text: "φ1 & φ2\n", Sticks: "a\nb"}
	for _, c := range []struct{ rep, want string }{
		{"text", `"φ1 \u0026 φ2\n"`},
		{"cif", `"B 1 1 0,0;\n"`},
		{"sticks", `"a\nb"`},
		{"block", `""`},
		{"text", `"φ1 \u0026 φ2\n"`},
		{"gds", `""`},
	} {
		if got := string(r.AppendJSON(nil, c.rep)); got != c.want {
			t.Errorf("AppendJSON(%s) = %s, want %s", c.rep, got, c.want)
		}
	}
}

// TestAppendJSONConcurrent: handlers serve one shared Result from many
// goroutines, so first-use classification races with itself. Every
// caller must still get json.Marshal's bytes, whichever goroutine's
// classification lands first.
func TestAppendJSONConcurrent(t *testing.T) {
	texts := map[string]string{"cif": "B 1 1 0,0;\n", "sticks": "a\nb", "text": "a & b", "block": "x", "logical": "c > d"}
	for round := 0; round < 20; round++ {
		r := &Result{CIF: []byte(texts["cif"]), Sticks: texts["sticks"], Text: texts["text"], Block: texts["block"], Logical: texts["logical"]}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < len(repOrder); i++ {
					rep := repOrder[(g+i)%len(repOrder)]
					want, _ := json.Marshal(texts[rep])
					if got := r.AppendJSON(nil, rep); string(got) != string(want) {
						t.Errorf("AppendJSON(%s) = %s, want %s", rep, got, want)
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

var repOrder = []string{"cif", "sticks", "text", "block", "logical"}
