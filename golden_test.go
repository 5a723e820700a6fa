package spblock_test

import (
	"fmt"
	"runtime"
	"testing"

	"spblock"
	"spblock/internal/gen"
	"spblock/internal/la"
	"spblock/internal/tensor"
	"spblock/internal/testutil/digest"
)

// The digests below pin the decompositions of the cmd/cpd regression
// probe bit for bit: `tensorgen -dims 60x50x40 -nnz 20000 -kind poisson
// -seed 8` decomposed at rank 16, seed 7, on 2 workers, for at most 10
// sweeps. Each row records the fits as %x and the SHA-256 of λ and the
// factor bits. Go compiles float64 arithmetic without fused
// multiply-adds only on amd64, so other architectures skip.

// probeTensorDigest is the tensorgen command's digest of the input.
const probeTensorDigest = "99577dd9bfd91ded7ca8ec4006f3937369412616070288396f65d02dc5ec17d2"

type goldenRun struct {
	fits    string
	factors string
}

func (g goldenRun) check(t *testing.T, name string, fits []float64, lambda []float64, factors []*la.Matrix) {
	t.Helper()
	got := goldenRun{fmt.Sprintf("%x", fits), digest.Factors(lambda, factors)}
	if got != g {
		t.Errorf("%s:\n got fits %s factors %s\nwant fits %s factors %s",
			name, got.fits, got.factors, g.fits, g.factors)
	}
}

func goldenProbe(t *testing.T) *spblock.Tensor {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded for amd64 float64 arithmetic")
	}
	x, err := gen.DatasetSpec{Kind: gen.KindPoisson}.GenerateAt(spblock.Dims{60, 50, 40}, 20000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest.Tensor(tensor.ToNMode(x)); got != probeTensorDigest {
		t.Fatalf("probe tensor digest %s, want %s", got, probeTensorDigest)
	}
	return x
}

func TestGoldenCPALSProbe(t *testing.T) {
	x := goldenProbe(t)
	for _, tc := range []struct {
		name    string
		plan    spblock.Plan
		memoize bool
		want    goldenRun
	}{
		// The five methods at cmd/cpd's defaults: grid 1x1x1, whole-rank strips.
		{"coo", spblock.Plan{Method: spblock.MethodCOO, Grid: [3]int{1, 1, 1}}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddacfp-01 0x1.3f4a26e9b1d06p-01 0x1.4a01cba8bb8a4p-01 0x1.52dc251111e77p-01 0x1.59d0939b4c004p-01 0x1.5e14e1e08726ep-01 0x1.61ba4631cdfccp-01 0x1.669ad46a44eddp-01 0x1.69cbeaf1f058p-01]",
			"ad324441bbee485f5599d3922efa39d5df25b8d1cd2f1818c5ac496b1cf7344e"}},
		{"splatt", spblock.Plan{Method: spblock.MethodSPLATT, Grid: [3]int{1, 1, 1}}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddad4p-01 0x1.3f4a26e9b1d04p-01 0x1.4a01cba8bb8aep-01 0x1.52dc251111e77p-01 0x1.59d0939b4c004p-01 0x1.5e14e1e08726p-01 0x1.61ba4631cdfccp-01 0x1.669ad46a44ed3p-01 0x1.69cbeaf1f057cp-01]",
			"35c6970487828e8b79f52703a5d40f265becb06313d67a4f15e5898e34f53cb9"}},
		{"mb", spblock.Plan{Method: spblock.MethodMB, Grid: [3]int{1, 1, 1}}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddad4p-01 0x1.3f4a26e9b1d04p-01 0x1.4a01cba8bb8aep-01 0x1.52dc251111e77p-01 0x1.59d0939b4c004p-01 0x1.5e14e1e08726p-01 0x1.61ba4631cdfccp-01 0x1.669ad46a44ed3p-01 0x1.69cbeaf1f057cp-01]",
			"35c6970487828e8b79f52703a5d40f265becb06313d67a4f15e5898e34f53cb9"}},
		{"rankb", spblock.Plan{Method: spblock.MethodRankB, Grid: [3]int{1, 1, 1}}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddad4p-01 0x1.3f4a26e9b1d04p-01 0x1.4a01cba8bb8aep-01 0x1.52dc251111e77p-01 0x1.59d0939b4c004p-01 0x1.5e14e1e08726p-01 0x1.61ba4631cdfccp-01 0x1.669ad46a44ed3p-01 0x1.69cbeaf1f057cp-01]",
			"35c6970487828e8b79f52703a5d40f265becb06313d67a4f15e5898e34f53cb9"}},
		{"mbrankb", spblock.Plan{Method: spblock.MethodMBRankB, Grid: [3]int{1, 1, 1}}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddad4p-01 0x1.3f4a26e9b1d04p-01 0x1.4a01cba8bb8aep-01 0x1.52dc251111e77p-01 0x1.59d0939b4c004p-01 0x1.5e14e1e08726p-01 0x1.61ba4631cdfccp-01 0x1.669ad46a44ed3p-01 0x1.69cbeaf1f057cp-01]",
			"35c6970487828e8b79f52703a5d40f265becb06313d67a4f15e5898e34f53cb9"}},
		// Blocked variants, and the memoized SPLATT path.
		{"mb 2x2x2", spblock.Plan{Method: spblock.MethodMB, Grid: [3]int{2, 2, 2}}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddad7p-01 0x1.3f4a26e9b1cfbp-01 0x1.4a01cba8bb8b4p-01 0x1.52dc251111e6dp-01 0x1.59d0939b4bffep-01 0x1.5e14e1e08727p-01 0x1.61ba4631cdfd4p-01 0x1.669ad46a44edap-01 0x1.69cbeaf1f057cp-01]",
			"4bfd7e4dce000a1fa19620285edf33fdb76e78a395fc4eb3b59d427b8ba43408"}},
		{"mbrankb 2x2x2 bs=8", spblock.Plan{Method: spblock.MethodMBRankB, Grid: [3]int{2, 2, 2}, RankBlockCols: 8}, false, goldenRun{
			"[0x1.fbda96b006886p-02 0x1.2f03c149ddad7p-01 0x1.3f4a26e9b1cfbp-01 0x1.4a01cba8bb8b4p-01 0x1.52dc251111e6dp-01 0x1.59d0939b4bffep-01 0x1.5e14e1e08727p-01 0x1.61ba4631cdfd4p-01 0x1.669ad46a44edap-01 0x1.69cbeaf1f057cp-01]",
			"4bfd7e4dce000a1fa19620285edf33fdb76e78a395fc4eb3b59d427b8ba43408"}},
		{"memoized splatt", spblock.Plan{Method: spblock.MethodSPLATT, Grid: [3]int{1, 1, 1}}, true, goldenRun{
			"[0x1.fbda96b00688ap-02 0x1.2f03c149ddadap-01 0x1.3f4a26e9b1cf2p-01 0x1.4a01cba8bb8a8p-01 0x1.52dc251111e7dp-01 0x1.59d0939b4c004p-01 0x1.5e14e1e08727p-01 0x1.61ba4631cdfbbp-01 0x1.669ad46a44ee1p-01 0x1.69cbeaf1f0583p-01]",
			"d55c893ebdee1f8d2e84d66e426cc736e02c949b2dc46b6f312630aedbf25609"}},
	} {
		tc.plan.Workers = 2
		res, err := cpalsPlan(x, tc.plan, spblock.CPOptions{Rank: 16, MaxIters: 10, Tol: 1e-5, Seed: 7, Memoize: tc.memoize})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tc.want.check(t, tc.name, res.Fits, res.Lambda, res.Factors)
	}
}

func TestGoldenCPALSOrder4(t *testing.T) {
	goldenProbe(t)
	x, err := gen.PoissonN(gen.PoissonNParams{Dims: []int{24, 20, 16, 12}, Events: 6000}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts spblock.OptionsN
		want goldenRun
	}{
		{"default", spblock.OptionsN{Workers: 2}, goldenRun{
			"[0x1.ee8225a154334p-02 0x1.3c058b44efebp-01 0x1.558d2524cad69p-01 0x1.6b3034c61b1aep-01 0x1.6d69a599cfe7p-01 0x1.6f1f0efbf7b11p-01 0x1.72805a6c1f82ep-01 0x1.758e0717eace6p-01 0x1.7710b71a9ac94p-01 0x1.77c1cb70b6fe6p-01]",
			"6680bcf283ed15304b88a5b3cb7ac37631cc7dc08c0e650de345f440cb15064b"}},
		{"grid 2x2x2x2 bs=8", spblock.OptionsN{Workers: 2, Grid: []int{2, 2, 2, 2}, RankBlockCols: 8}, goldenRun{
			"[0x1.ee8225a15433ap-02 0x1.3c058b44efeacp-01 0x1.558d2524cad6ep-01 0x1.6b3034c61b1b9p-01 0x1.6d69a599cfe76p-01 0x1.6f1f0efbf7b06p-01 0x1.72805a6c1f834p-01 0x1.758e0717eacecp-01 0x1.7710b71a9ac9ap-01 0x1.77c1cb70b6ff2p-01]",
			"6ecd58ff55dd7c3c1c259d432bfaeaba74624af87b3ec1443d8c7043fbac17c8"}},
	} {
		res, err := spblock.CPALSN(x, spblock.CPNOptions{Rank: 16, MaxIters: 10, Tol: 1e-5, Seed: 7, Kernel: tc.opts})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		tc.want.check(t, tc.name, res.Fits, res.Lambda, res.Factors)
	}
}

func TestGoldenCPAPRAndDistCPALS(t *testing.T) {
	x := goldenProbe(t)
	for _, tc := range []struct {
		workers int
		want    goldenRun
	}{{1, goldenRun{
		"[0x1.ff2919c6990fcp+14 0x1.9b36347e3a4d4p+14 0x1.2202969aaa2cdp+14 0x1.a689c3cc463d6p+13 0x1.48e08c4e23a02p+13 0x1.fb584dac508d3p+12 0x1.65494f894f796p+12 0x1.fa2eb7df5f4d6p+11 0x1.7e0fb26b2dcc8p+11 0x1.353828474cfdcp+11]",
		"2e13053b33dff5af49839770c08bd53574ba29c8c0996f0028259c1e96ee035c"}}, {2, goldenRun{
		"[0x1.ff2919c6990fep+14 0x1.9b36347e3a4d4p+14 0x1.2202969aaa2cfp+14 0x1.a689c3cc463d6p+13 0x1.48e08c4e239fdp+13 0x1.fb584dac508c5p+12 0x1.65494f894f792p+12 0x1.fa2eb7df5f4ep+11 0x1.7e0fb26b2dcc5p+11 0x1.353828474cfdp+11]",
		"dc7f3b630c08787ab7f3ca730ed4316036566d7fafcb69415e8c16a56e42649e"}}} {
		res, err := spblock.CPAPR(x, spblock.APROptions{Rank: 8, MaxIters: 10, Seed: 7, Workers: tc.workers})
		if err != nil {
			t.Fatal(err)
		}
		tc.want.check(t, fmt.Sprintf("CPAPR workers=%d", tc.workers), res.KL, nil, res.Factors[:])
	}
	splatt := spblock.Plan{Method: spblock.MethodSPLATT, Grid: [3]int{1, 1, 1}, Workers: 1}
	for _, tc := range []struct {
		rankParts int
		want      goldenRun
	}{{1, goldenRun{
		"[0x1.fbda96b00688ep-02 0x1.2f03c149ddacfp-01 0x1.3f4a26e9b1d06p-01 0x1.4a01cba8bb8aep-01 0x1.52dc251111e7p-01 0x1.59d0939b4bff8p-01 0x1.5e14e1e087274p-01 0x1.61ba4631cdfc6p-01 0x1.669ad46a44eddp-01 0x1.69cbeaf1f0583p-01]",
		"eedcdfdb8808a7a082285a8f5bab79dbce125c90a4fec8e22ed459a4938dc1fe"}}, {2, goldenRun{
		"[0x1.fbda96b00687cp-02 0x1.2f03c149ddacap-01 0x1.3f4a26e9b1d0fp-01 0x1.4a01cba8bb8b6p-01 0x1.52dc251111e7dp-01 0x1.59d0939b4c012p-01 0x1.5e14e1e08727bp-01 0x1.61ba4631cdfc6p-01 0x1.669ad46a44ee8p-01 0x1.69cbeaf1f0574p-01]",
		"5fdf2a99d48bdec7940c77bb66f5c61a39011904d11cf1434909b791a2c4a558"}}} {
		cfg := spblock.DistConfig{Ranks: 4, RankParts: tc.rankParts, Plan: splatt, Model: spblock.DefaultCluster()}
		res, err := spblock.DistCPALS(x, cfg, spblock.DistCPOptions{Rank: 16, MaxIters: 10, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		tc.want.check(t, fmt.Sprintf("DistCPALS rankParts=%d", tc.rankParts), res.Fits, res.Lambda, res.Factors[:])
	}
}
