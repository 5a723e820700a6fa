package tensor

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"spblock/internal/nmode"
)

// readTNS parses a .tns body and requires a third-order tensor.
func readTNS(in string) (*nmode.Tensor, error) {
	x, err := nmode.ReadTNS(strings.NewReader(in))
	if err != nil {
		return nil, err
	}
	return x, CheckOrder3(x)
}

// roundTrip writes x and reads it back.
func roundTrip(t *testing.T, x *nmode.Tensor) *nmode.Tensor {
	t.Helper()
	var buf bytes.Buffer
	if err := nmode.WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	back, err := readTNS(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestReadTNSBasic(t *testing.T) {
	in := `# a comment
1 1 1 5.0

1 2 2 3
3 1 1 9.5
`
	c, err := readTNS(in)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 3 {
		t.Fatalf("nnz = %d", c.NNZ())
	}
	if !slices.Equal(c.Dims, []int{3, 2, 2}) {
		t.Fatalf("dims = %v", c.Dims)
	}
	if c.Idx[0][2] != 2 || c.Val[2] != 9.5 {
		t.Fatal("entries parsed wrong")
	}
}

func TestReadTNSDimsComment(t *testing.T) {
	c, err := readTNS("# dims: 10 20 30\n1 1 1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.Dims, []int{10, 20, 30}) {
		t.Fatalf("dims = %v", c.Dims)
	}
}

func TestReadTNSErrors(t *testing.T) {
	cases := map[string]string{
		"too few fields":      "1 1 1\n",
		"too many fields":     "1 1 1 1 1\n",
		"bad coordinate":      "x 1 1 1\n",
		"zero coordinate":     "0 1 1 1\n",
		"negative coordinate": "-2 1 1 1\n",
		"bad value":           "1 1 1 zz\n",
		"bad dims comment":    "# dims: 1 2\n1 1 1 1\n",
		"coordinate too big":  "4294967296 1 1 1\n",
		"dims below data":     "# dims: 1 1 1\n2 1 1 1\n",
	}
	for name, in := range cases {
		if _, err := readTNS(in); err == nil {
			t.Errorf("%s: no error for %q", name, in)
		}
	}
}

func TestReadTNSEmpty(t *testing.T) {
	// Without data the order is unknowable, unless a dims comment
	// declares it.
	if _, err := readTNS("# nothing\n"); !errors.Is(err, nmode.ErrNoData) {
		t.Fatalf("data-free input: %v, want ErrNoData", err)
	}
	c, err := readTNS("# dims: 1 1 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Fatal("phantom entries")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("empty tensor must still have valid dims: %v", err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	orig := randomCOO(rng, []int{9, 5, 7}, 150)
	if _, err := Dedup(orig); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, orig)
	if !slices.Equal(back.Dims, orig.Dims) {
		t.Fatalf("dims %v != %v", back.Dims, orig.Dims)
	}
	if !sameMultiset(entryMultiset(orig), entryMultiset(back)) {
		t.Fatal("round trip changed entries")
	}
}

func TestRoundTripPreservesEmptyTrailingSlices(t *testing.T) {
	c := nmode.NewTensor([]int{100, 100, 100}, 0)
	add(c, 0, 0, 0, 1) // only the first cell is used
	if back := roundTrip(t, c); !slices.Equal(back.Dims, c.Dims) {
		t.Fatalf("dims comment lost: %v", back.Dims)
	}
}

func TestFileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tns")
	rng := rand.New(rand.NewSource(4))
	orig := randomCOO(rng, []int{4, 4, 4}, 20)
	if _, err := Dedup(orig); err != nil {
		t.Fatal(err)
	}
	if err := nmode.SaveTNSFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, err := nmode.LoadTNSFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMultiset(entryMultiset(orig), entryMultiset(back)) {
		t.Fatal("file round trip changed entries")
	}
	if _, err := nmode.LoadTNSFile(filepath.Join(dir, "missing.tns")); err == nil {
		t.Fatal("loading a missing file should fail")
	}
}

func TestWriteTNSPreservesPrecision(t *testing.T) {
	c := nmode.NewTensor([]int{1, 1, 1}, 0)
	add(c, 0, 0, 0, 0.1234567890123456789)
	if back := roundTrip(t, c); back.Val[0] != c.Val[0] {
		t.Fatalf("value %v != %v", back.Val[0], c.Val[0])
	}
}
