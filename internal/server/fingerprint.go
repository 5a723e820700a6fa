// Package server implements spblockd, a long-running decomposition
// service over the library's execution stack: clients upload .tns
// tensors and submit MTTKRP / CP-ALS / CP-APR jobs against them over
// HTTP. Its core is an executor cache keyed by tensor fingerprint —
// the whole-engine generalisation of internal/memo's storage-for-time
// trade: the expensive per-mode preprocessing (CSF and block builds,
// workspace sizing) is paid once per distinct tensor and reused by
// every job any tenant submits for it, with exclusive leases
// serialising jobs on one stack because pooled workspaces are
// single-Run by contract (see internal/nmode).
//
// Admission control is two-layered: a bounded worker pool caps the
// process-wide decomposition concurrency (excess jobs queue), and a
// per-tenant in-flight quota rejects tenants that would monopolise the
// pool (HTTP 429). Jobs are cancellable mid-sweep: the request context
// — bounded by an optional per-job timeout — threads through the
// CP-ALS / CP-APR loops, which check it between mode products.
package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sort"

	"spblock/internal/tensor"
)

// Fingerprint returns a content hash identifying t up to nonzero
// storage order: the sha256 of the dims and the (i, j, k, value)
// stream in canonical coordinate order. Two uploads of the same
// logical tensor — however their lines were ordered — map to the same
// cache entry, while any changed value, coordinate or mode length maps
// elsewhere. The tensor is not mutated (the canonical order is
// realised through an index permutation, not a sort of t itself);
// callers should Dedup first so duplicate coordinates cannot make the
// canonical order ambiguous.
func Fingerprint(t *tensor.COO) string {
	n := t.NNZ()
	perm := make([]int, n)
	for p := range perm {
		perm[p] = p
	}
	sort.Slice(perm, func(a, b int) bool {
		pa, pb := perm[a], perm[b]
		if t.I[pa] != t.I[pb] {
			return t.I[pa] < t.I[pb]
		}
		if t.J[pa] != t.J[pb] {
			return t.J[pa] < t.J[pb]
		}
		return t.K[pa] < t.K[pb]
	})
	h := sha256.New()
	var buf [24]byte
	for m := 0; m < 3; m++ {
		binary.LittleEndian.PutUint64(buf[m*8:], uint64(t.Dims[m]))
	}
	h.Write(buf[:24])
	for _, p := range perm {
		binary.LittleEndian.PutUint32(buf[0:], uint32(t.I[p]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(t.J[p]))
		binary.LittleEndian.PutUint32(buf[8:], uint32(t.K[p]))
		binary.LittleEndian.PutUint64(buf[12:], math.Float64bits(t.Val[p]))
		h.Write(buf[:20])
	}
	return hex.EncodeToString(h.Sum(nil))
}
