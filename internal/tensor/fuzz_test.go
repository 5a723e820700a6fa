package tensor

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTNS drives the text parser with arbitrary inputs: it must
// never panic, whatever it accepts must validate and round-trip, and
// Dedup must merge its duplicates exactly as the input-order oracle.
func FuzzReadTNS(f *testing.F) {
	seeds := []string{
		"1 1 1 5.0\n",
		"# dims: 3 3 3\n1 2 3 -1e4\n2 2 2 0.5\n",
		"# comment\n\n10 1 1 1\n",
		"1 1 1 1\n1 1 1 2\n",
		"9999999 1 1 1\n",
		"1 1 1 nan\n",
		"a b c d\n",
		"# dims: 0 0 0\n",
		"1 1 1 1e309\n",
		"2 1 1 0.1\n1 1 1 0.2\n2 1 1 0.7\n1 1 2 -0\n2 1 1 1e-17\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadTNS(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted tensor fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteTNS(&buf, c); err != nil {
			t.Fatalf("cannot re-serialise accepted tensor: %v", err)
		}
		back, err := ReadTNS(&buf)
		if err != nil {
			t.Fatalf("round trip of accepted tensor failed: %v", err)
		}
		if back.NNZ() != c.NNZ() || back.Dims != c.Dims {
			t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
				back.Dims, back.NNZ(), c.Dims, c.NNZ())
		}
		want := dedupOracle(c)
		c.Dedup()
		if err := checkDedup(c, want); err != nil {
			t.Fatalf("Dedup: %v", err)
		}
	})
}
