package cpd

import (
	"fmt"

	"spblock/internal/ooc"
)

// OOCOptions is Options, under the name the spbench benchmark uses; it
// is kept until the benchmark next changes.
type OOCOptions = Options

// CPALSOOC decomposes a staged tensor with the shared CP-ALS sweep
// loop, every MTTKRP product streamed through e's bounded-memory
// prefetch pipeline. Only the working set of blocks plus the factor
// matrices are resident; the tensor itself never is. ‖X‖ comes from
// the staging pass (same summation order as the in-memory drivers), so
// with the same seed, rank and iteration budget the trajectory is
// bit-identical to CPALS over the same tensor on the same blocking
// grid. The memory knobs live on ooc.Options when e is opened, so
// Options.Kernel is ignored; Memoize is rejected.
func CPALSOOC(e *ooc.Engine, opts Options) (*Result, error) {
	if opts.Memoize {
		return nil, fmt.Errorf("cpd: CPALSOOC does not support Memoize")
	}
	return decompose(e, opts.sweeps(e.NormSq()))
}
