// Package digest hashes tensors and decompositions bit for bit, so the
// golden-output tests can pin a refactor to the exact results of the
// code it replaces.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"spblock/internal/la"
	"spblock/internal/nmode"
)

// Tensor returns the SHA-256 of t's dims, then of every entry's
// coordinates and value bits, in stored order.
func Tensor(t *nmode.Tensor) string {
	h := sha256.New()
	put(h, uint64(t.Order()))
	for _, d := range t.Dims {
		put(h, uint64(d))
	}
	for p, v := range t.Val {
		for m := range t.Idx {
			put(h, uint64(uint32(t.Idx[m][p])))
		}
		put(h, math.Float64bits(v))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Factors returns the SHA-256 of lambda's bits, then of each factor's
// shape and entry bits, row by row.
func Factors(lambda []float64, factors []*la.Matrix) string {
	h := sha256.New()
	for _, v := range lambda {
		put(h, math.Float64bits(v))
	}
	for _, f := range factors {
		put(h, uint64(f.Rows))
		put(h, uint64(f.Cols))
		for i := 0; i < f.Rows; i++ {
			for _, v := range f.Row(i) {
				put(h, math.Float64bits(v))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func put(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
