package main

import (
	"testing"

	"spblock/internal/testutil/digest"
)

// TestGoldenCustomDigests pins tensorgen's custom-shape output (dims,
// coordinates and value bits in stored order) for the CI smoke tensors
// and an order-3 clustered shape.
func TestGoldenCustomDigests(t *testing.T) {
	for _, tc := range []struct {
		dims string
		nnz  int
		kind string
		seed int64
		want string
	}{
		{"30x24x20", 1200, "poisson", 7, "000bdcdb4ac344e58ecba875d958479bcd1792902d4146f4801aab59d1d8108c"},
		{"60x50x40", 20000, "poisson", 8, "99577dd9bfd91ded7ca8ec4006f3937369412616070288396f65d02dc5ec17d2"},
		{"40x30x20", 3000, "clustered", 3, "3834987d1f103fcf17df77ca05b97115bb4ef379e20329d218399649e7c7457e"},
	} {
		x, err := generateCustom(tc.dims, tc.nnz, tc.kind, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if got := digest.Tensor(x); got != tc.want {
			t.Errorf("%s %s nnz=%d seed=%d: digest %s, want %s",
				tc.kind, tc.dims, tc.nnz, tc.seed, got, tc.want)
		}
	}
}
