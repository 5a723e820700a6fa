package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"spblock/internal/nmode"
	"spblock/internal/tensor"
)

// FuzzUpload posts arbitrary bodies to /tensors. Every reply must be
// 200 or 4xx, never a panic or a 5xx; a body is accepted exactly when
// nmode.ReadTNS followed by tensor.Dedup accepts it, and an accepted
// reply's dims and nnz are theirs.
func FuzzUpload(f *testing.F) {
	seeds := []string{
		"1 1 1 5.0\n",
		"# dims: 4 3 2\n1 2 1 -1\n4 3 2 2.5\n4 3 2 2.5\n",
		"2 3 1 4 -2\n1 1 1 1 1\n2 3 1 4 0.5\n",
		"# dims: 3 4\n",
		"# dims: 5\n",
		"# dims: 0 0 0\n",
		"",
		"# comment only\n",
		"1 1 1 nan\n1 1 1 inf\n",
		"1\t2\t3\t4\r\n3 2 1 1e-300\r\n",
		"1 1 1 1\n1 1 1 1 1\n",
		"0 1 1 1\n",
		"1 1 1 x\n",
		"1 1 1 1\n2147483647 1 1 2\n1 1 1 3\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	s := New(Options{Cache: CacheConfig{MaxBytes: 1 << 20}})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := nmode.ReadTNS(bytes.NewReader(body))
		if werr == nil {
			_, werr = tensor.Dedup(want)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/tensors", bytes.NewReader(body)))
		switch {
		case rec.Code == http.StatusOK:
			if werr != nil {
				t.Fatalf("upload accepted a body ReadTNS+Dedup rejects: %v", werr)
			}
			var up uploadResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &up); err != nil {
				t.Fatalf("undecodable reply %q: %v", rec.Body, err)
			}
			if !slices.Equal(up.Dims, want.Dims) || up.NNZ != want.NNZ() {
				t.Fatalf("reply dims %v nnz %d, want %v nnz %d", up.Dims, up.NNZ, want.Dims, want.NNZ())
			}
		case rec.Code >= 400 && rec.Code < 500:
			if werr == nil {
				t.Fatalf("upload rejected (%d %q) a body ReadTNS+Dedup accepts", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("reply %d %q", rec.Code, rec.Body)
		}
	})
}
