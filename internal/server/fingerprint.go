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

	"spblock/internal/nmode"
)

// Fingerprint returns a content hash identifying t up to nonzero
// storage order: the sha256 of the dims and of each nonzero's
// coordinates and value, in canonical coordinate order (0, 1, …, N−1).
// Two uploads of the same logical tensor — however their lines were
// ordered — map to the same cache entry, while any changed value,
// coordinate or mode length maps elsewhere. t is not mutated: the
// canonical order comes from nmode's stable counting sort as a
// permutation. Callers should Dedup first so duplicate coordinates
// cannot make the canonical order ambiguous. A tensor the sort rejects
// (ragged, or coordinates spanning more than its longest mode and its
// nonzero count) has no fingerprint.
func Fingerprint(t *nmode.Tensor) (string, error) {
	perm, err := t.SortPerm(nil)
	if err != nil {
		return "", err
	}
	n := t.Order()
	rec := 4*n + 8
	buf := make([]byte, max(8*n, rec))
	h := sha256.New()
	for m, d := range t.Dims {
		binary.LittleEndian.PutUint64(buf[m*8:], uint64(d))
	}
	h.Write(buf[:8*n])
	for q := range t.NNZ() {
		p := q
		if perm != nil {
			p = int(perm[q])
		}
		for m, idx := range t.Idx {
			binary.LittleEndian.PutUint32(buf[4*m:], uint32(idx[p]))
		}
		binary.LittleEndian.PutUint64(buf[rec-8:], math.Float64bits(t.Val[p]))
		h.Write(buf[:rec])
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
