package tensor

import (
	"errors"
	"fmt"
	"io"
	"os"

	"spblock/internal/nmode"
)

// ReadTNS parses a FROSTT-style text tensor: one nonzero per line as
// "i j k value" with 1-based coordinates, blank lines and '#' comments
// ignored. Mode lengths are the maximum coordinate seen unless a
// comment of the form "# dims: I J K" declares them.
//
// Parsing is delegated to the order-N reader in internal/nmode (the
// canonical TNS parser), which validates the tensor; this adapter fixes
// the order at 3 and converts zero-copy. Empty input with no dims
// comment — where the order is unknowable — is legal here because the
// order is pinned: it yields an empty 1x1x1 tensor.
func ReadTNS(r io.Reader) (*COO, error) {
	nt, err := nmode.ReadTNS(r)
	if err != nil {
		if errors.Is(err, nmode.ErrNoData) {
			return NewCOO(Dims{1, 1, 1}, 0), nil
		}
		return nil, err
	}
	return FromNMode(nt)
}

// WriteTNS writes the tensor in FROSTT text form with a dims comment so
// trailing empty slices survive a round trip. The order-N writer does
// the formatting over a zero-copy view.
func WriteTNS(w io.Writer, t *COO) error {
	return nmode.WriteTNS(w, ToNMode(t))
}

// LoadTNSFile reads a tensor from a file path.
func LoadTNSFile(path string) (*COO, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTNS(f)
}

// SaveTNSFile writes a tensor to a file path.
func SaveTNSFile(path string, t *COO) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteTNS(f, t); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Stats summarises a tensor's shape, in the vocabulary of Table II and
// the Sec. IV byte model.
type Stats struct {
	Dims           Dims
	NNZ            int
	Fibers         int
	Density        float64
	AvgFiberLength float64
	COOBytes       int64 // paper model: 32 * nnz
	SPLATTBytes    int64 // paper model: 16 + 8I + 16F + 16nnz
}

// ComputeStats gathers Stats for a COO tensor.
func ComputeStats(t *COO) Stats {
	f := t.CountFibers()
	s := Stats{
		Dims:     t.Dims,
		NNZ:      t.NNZ(),
		Fibers:   f,
		Density:  t.Density(),
		COOBytes: 32 * int64(t.NNZ()),
		SPLATTBytes: 16 + 8*int64(t.Dims[0]) +
			16*int64(f) + 16*int64(t.NNZ()),
	}
	if f > 0 {
		s.AvgFiberLength = float64(t.NNZ()) / float64(f)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%v nnz=%d fibers=%d density=%.3g avgFiber=%.2f",
		s.Dims, s.NNZ, s.Fibers, s.Density, s.AvgFiberLength)
}
