// Command tensorgen writes the synthetic data sets of Table II (or any
// custom shape, of any order) as FROSTT-style .tns files.
//
// Usage:
//
//	tensorgen -dataset Poisson2 -out poisson2.tns
//	tensorgen -dataset Netflix -scale 0.1 -out netflix-small.tns
//	tensorgen -dims 1000x800x600 -nnz 500000 -kind clustered -out custom.tns
//	tensorgen -dims 1000x800x600x24 -nnz 500000 -out order4.tns
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spblock"
	"spblock/internal/gen"
	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "Table II data set name (see -list)")
		list    = flag.Bool("list", false, "list available data sets and exit")
		scale   = flag.Float64("scale", 1.0, "scale factor on the bench-size shape")
		dims    = flag.String("dims", "", "custom shape I0xI1x...xI{N-1}, any order >= 2 (overrides -dataset)")
		nnz     = flag.Int("nnz", 0, "custom nonzero count (with -dims)")
		kind    = flag.String("kind", "clustered", "custom generator: poisson|clustered")
		seed    = flag.Int64("seed", 42, "generator seed")
		out     = flag.String("out", "", "output .tns path (default stdout)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available data sets (Table II):")
		for _, name := range gen.Names() {
			spec, _ := gen.Lookup(name)
			fmt.Printf("  %-9s %-7s paper %v nnz=%.3g | bench %v nnz=%d\n",
				name, spec.Kind, spec.PaperDims, float64(spec.PaperNNZ),
				spec.BenchDims, spec.BenchNNZ)
		}
		return
	}

	var (
		t   *nmode.Tensor
		err error
	)
	switch {
	case *dims != "":
		t, err = generateCustom(*dims, *nnz, *kind, *seed)
	case *dataset != "":
		var coo *tensor.COO
		coo, err = generateRegistry(*dataset, *scale, *seed)
		if err == nil {
			t = tensor.ToNMode(coo)
		}
	default:
		err = fmt.Errorf("need -dataset or -dims (try -list)")
	}
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "tensorgen: %s\n", describe(t))

	if *out == "" {
		if err := nmode.WriteTNS(os.Stdout, t); err != nil {
			fatal(err)
		}
		return
	}
	if err := spblock.SaveTNSN(*out, t); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tensorgen: wrote %s\n", *out)
}

// describe summarises the generated tensor: the full order-3 stats for
// third-order shapes (matching the historical output), a shape/nnz
// /density line otherwise.
func describe(t *nmode.Tensor) string {
	if t.Order() == 3 {
		if coo, err := tensor.FromNMode(t); err == nil {
			return spblock.ComputeStats(coo).String()
		}
	}
	dense := 1.0
	for _, d := range t.Dims {
		dense *= float64(d)
	}
	density := 0.0
	if dense > 0 {
		density = float64(t.NNZ()) / dense
	}
	return fmt.Sprintf("%v nnz=%d density=%.3g", t.Dims, t.NNZ(), density)
}

func generateRegistry(name string, scale float64, seed int64) (*tensor.COO, error) {
	spec, err := gen.Lookup(name)
	if err != nil {
		return nil, err
	}
	if scale == 1 {
		return spec.Generate(seed)
	}
	d := spec.BenchDims
	for m := 0; m < 3; m++ {
		v := int(float64(d[m]) * scale)
		if v < 8 {
			v = 8
		}
		d[m] = v
	}
	n := int(float64(spec.BenchNNZ) * scale)
	if n < 100 {
		n = 100
	}
	return spec.GenerateAt(d, n, seed)
}

func generateCustom(dimsStr string, nnz int, kind string, seed int64) (*nmode.Tensor, error) {
	parts := strings.Split(strings.ToLower(dimsStr), "x")
	if len(parts) < 2 {
		return nil, fmt.Errorf("dims must be I0xI1x...x I{N-1} with N >= 2, got %q", dimsStr)
	}
	d := make([]int, len(parts))
	for m := range parts {
		if _, err := fmt.Sscan(parts[m], &d[m]); err != nil {
			return nil, fmt.Errorf("bad dims %q: %w", dimsStr, err)
		}
		if d[m] <= 0 {
			return nil, fmt.Errorf("bad dims %q: mode %d must be positive", dimsStr, m)
		}
	}
	if nnz <= 0 {
		return nil, fmt.Errorf("custom shapes need -nnz > 0")
	}
	switch kind {
	case "poisson":
		return gen.PoissonN(gen.PoissonNParams{Dims: d, Events: nnz + nnz/8}, seed)
	case "clustered":
		return gen.ClusteredN(gen.ClusteredNParams{Dims: d, NNZ: nnz}, seed)
	default:
		return nil, fmt.Errorf("unknown kind %q (poisson|clustered)", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tensorgen:", err)
	os.Exit(1)
}
