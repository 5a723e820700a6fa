package tensor

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"spblock/internal/nmode"
)

// ModeProfile summarises the nonzero distribution along one mode — the
// quantities the paper's analysis turns on: how many rows of the
// mode's factor matrix are touched, how skewed the access frequencies
// are (heavy-tailed modes keep their hub rows cached), and how balanced
// a greedy slice partition can be.
type ModeProfile struct {
	Mode   int
	Length int
	// NonEmpty is the number of indices with at least one nonzero —
	// the factor rows actually touched.
	NonEmpty int
	// MaxCount / MeanCount describe the per-index nonzero distribution.
	MaxCount  int64
	MeanCount float64
	// Gini is the Gini coefficient of the per-index counts in [0, 1):
	// 0 = uniform, →1 = all mass on one index. Real-world modes are
	// strongly skewed; Poisson modes are not.
	Gini float64
	// TopShare[k] is the fraction of nonzeros carried by the heaviest
	// 10^-(k+1) fraction of indices (top 10%, top 1%).
	TopShare [2]float64
}

// ProfileMode computes the ModeProfile for one mode of a third-order
// tensor.
func ProfileMode(t *nmode.Tensor, mode int) (ModeProfile, error) {
	if err := CheckOrder3(t); err != nil {
		return ModeProfile{}, err
	}
	if mode < 0 || mode > 2 {
		return ModeProfile{}, fmt.Errorf("tensor: mode %d out of range", mode)
	}
	if err := t.Validate(); err != nil {
		return ModeProfile{}, err
	}
	counts := make([]int64, t.Dims[mode])
	for _, c := range t.Idx[mode] {
		counts[c]++
	}
	p := ModeProfile{Mode: mode, Length: t.Dims[mode]}
	var total int64
	for _, c := range counts {
		if c > 0 {
			p.NonEmpty++
		}
		if c > p.MaxCount {
			p.MaxCount = c
		}
		total += c
	}
	if p.Length > 0 {
		p.MeanCount = float64(total) / float64(p.Length)
	}
	if total == 0 {
		return p, nil
	}
	sort.Slice(counts, func(a, b int) bool { return counts[a] > counts[b] })
	// Top-share: heaviest 10% and 1% of indices.
	for k, frac := range []float64{0.1, 0.01} {
		n := int(math.Ceil(frac * float64(p.Length)))
		if n < 1 {
			n = 1
		}
		var s int64
		for _, c := range counts[:n] {
			s += c
		}
		p.TopShare[k] = float64(s) / float64(total)
	}
	// Gini over descending counts: G = (n+1-2*Σ cum_i/total)/n with
	// ascending order; flip for descending.
	n := len(counts)
	var cum, weighted int64
	for i := n - 1; i >= 0; i-- { // ascending traversal
		cum += counts[i]
		weighted += cum
	}
	p.Gini = (float64(n+1) - 2*float64(weighted)/float64(total)) / float64(n)
	if p.Gini < 0 {
		p.Gini = 0
	}
	return p, nil
}

// Profile aggregates all three mode profiles plus fiber statistics.
type Profile struct {
	Stats Stats
	Modes [3]ModeProfile
	// MaxFiberLen is the longest mode-2 fiber.
	MaxFiberLen int
}

// ProfileTensor computes the full profile of a third-order tensor.
func ProfileTensor(t *nmode.Tensor) (Profile, error) {
	stats, err := ComputeStats(t)
	if err != nil {
		return Profile{}, err
	}
	p := Profile{Stats: stats}
	for m := 0; m < 3; m++ {
		mp, err := ProfileMode(t, m)
		if err != nil {
			return Profile{}, err
		}
		p.Modes[m] = mp
	}
	if t.NNZ() > 0 {
		csf, err := nmode.Build(t, SPLATTModeOrder())
		if err != nil {
			return Profile{}, err
		}
		fiberPtr := csf.Ptr[1]
		for f := 1; f < len(fiberPtr); f++ {
			if l := int(fiberPtr[f] - fiberPtr[f-1]); l > p.MaxFiberLen {
				p.MaxFiberLen = l
			}
		}
	}
	return p, nil
}

// String renders the profile as a small report.
func (p Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s maxFiber=%d\n", p.Stats, p.MaxFiberLen)
	for m := 0; m < 3; m++ {
		mp := p.Modes[m]
		fmt.Fprintf(&b, "  mode-%d: len=%d nonEmpty=%d (%.0f%%) max=%d gini=%.2f top10%%=%.0f%% top1%%=%.0f%%\n",
			m+1, mp.Length, mp.NonEmpty,
			100*float64(mp.NonEmpty)/float64(max(mp.Length, 1)),
			mp.MaxCount, mp.Gini, 100*mp.TopShare[0], 100*mp.TopShare[1])
	}
	return strings.TrimRight(b.String(), "\n")
}
