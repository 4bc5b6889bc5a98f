package main

import "testing"

// TestCorpusDigest pins corpus identity: a seed fully determines a
// workload's inputs, and another seed gives other inputs.
func TestCorpusDigest(t *testing.T) {
	for _, w := range []string{coldCompile, hotCache, editSession} {
		digest := func(seed int64) string {
			c, err := newCorpus("..", w, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			return c.digest
		}
		a, b, other := digest(7), digest(7), digest(8)
		if a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", w, a, b)
		}
		if a == other {
			t.Errorf("%s: seeds 7 and 8 share digest %s", w, a)
		}
	}
}
