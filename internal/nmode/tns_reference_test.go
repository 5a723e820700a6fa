package nmode

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// referenceReadTNS is the strings.Fields/strconv parser ReadTNS's byte
// tokenizer replaced, kept as its oracle: every input must get the same
// accept/reject decision, the same error text, the same dims and the
// same Idx/Val bits from both.
func referenceReadTNS(r io.Reader) (*Tensor, error) {
	all, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(all), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	var (
		t        *Tensor
		declared []int
		maxCoord []Index
		coords   []Index
	)
	for i, raw := range lines {
		line := i + 1
		text := strings.TrimSpace(strings.TrimSuffix(raw, "\r"))
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if rest, ok := strings.CutPrefix(text, "# dims:"); ok {
				for _, f := range strings.Fields(rest) {
					d, err := strconv.Atoi(f)
					if err != nil {
						return nil, fmt.Errorf("nmode: line %d: bad dims comment: %v", line, err)
					}
					declared = append(declared, d)
				}
			}
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 3 {
			return nil, fmt.Errorf("nmode: line %d: want >= 2 coordinates and a value, got %d fields",
				line, len(fields))
		}
		order := len(fields) - 1
		if coords == nil {
			coords = make([]Index, order)
			maxCoord = make([]Index, order)
		} else if order != len(coords) {
			return nil, fmt.Errorf("nmode: line %d: order %d conflicts with earlier order %d",
				line, order, len(coords))
		}
		for m := 0; m < order; m++ {
			v, err := strconv.ParseInt(fields[m], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("nmode: line %d: bad coordinate %q: %v", line, fields[m], err)
			}
			if v < 1 {
				return nil, fmt.Errorf("nmode: line %d: coordinates are 1-based, got %d", line, v)
			}
			if v > 1<<31-1 {
				return nil, fmt.Errorf("nmode: line %d: coordinate %d exceeds int32 range", line, v)
			}
			coords[m] = Index(v - 1)
			maxCoord[m] = max(maxCoord[m], coords[m]+1)
		}
		val, err := strconv.ParseFloat(fields[order], 64)
		if err != nil {
			return nil, fmt.Errorf("nmode: line %d: bad value %q: %v", line, fields[order], err)
		}
		if t == nil {
			t = NewTensor(make([]int, order), 1024)
		}
		t.Append(coords, val)
	}
	if t == nil {
		if declared != nil {
			t = NewTensor(declared, 0)
			if err := t.Validate(); err != nil {
				return nil, err
			}
			return t, nil
		}
		return nil, ErrNoData
	}
	if declared != nil {
		if len(declared) != t.Order() {
			return nil, fmt.Errorf("nmode: dims comment has %d modes, data has %d",
				len(declared), t.Order())
		}
		t.Dims = declared
	} else {
		for m, mc := range maxCoord {
			t.Dims[m] = int(mc)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// streamReadTNS is ReadTNS built on TNSStream.Next, on the pipeline at
// `workers` workers and blocks of blockBytes: it appends each nonzero
// as Next returns it and applies ReadTNS's end-of-input rules to the
// stream's DeclaredDims and MaxCoords.
func streamReadTNS(r io.Reader, workers, blockBytes int) (*Tensor, error) {
	s := newTNSStream(r, workers, blockBytes)
	defer s.Close()
	var t *Tensor
	for {
		coords, val, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if t == nil {
			t = NewTensor(make([]int, len(coords)), 0)
		}
		t.Append(coords, val)
	}
	declared := s.DeclaredDims()
	if t == nil {
		if declared == nil {
			return nil, ErrNoData
		}
		t = NewTensor(declared, 0)
	} else if declared != nil {
		if len(declared) != t.Order() {
			return nil, fmt.Errorf("nmode: dims comment has %d modes, data has %d",
				len(declared), t.Order())
		}
		t.Dims = declared
	} else {
		for m, mc := range s.MaxCoords() {
			t.Dims[m] = int(mc)
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// sameParse reports how ReadTNS's result (got, gerr) differs from the
// reference's (want, werr): decision, error text, dims, and every
// coordinate and value bit.
func sameParse(got *Tensor, gerr error, want *Tensor, werr error) error {
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("ReadTNS error %v, reference error %v", gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			return fmt.Errorf("error text %q, reference %q", gerr, werr)
		}
		return nil
	}
	if !slices.Equal(got.Dims, want.Dims) || got.NNZ() != want.NNZ() {
		return fmt.Errorf("dims %v nnz %d, reference %v nnz %d", got.Dims, got.NNZ(), want.Dims, want.NNZ())
	}
	for m := range want.Idx {
		if !slices.Equal(got.Idx[m], want.Idx[m]) {
			return fmt.Errorf("mode %d coordinates %v, reference %v", m, got.Idx[m], want.Idx[m])
		}
	}
	for p, v := range want.Val {
		if math.Float64bits(got.Val[p]) != math.Float64bits(v) {
			return fmt.Errorf("value %d = %v (%#x), reference %v (%#x)",
				p, got.Val[p], math.Float64bits(got.Val[p]), v, math.Float64bits(v))
		}
	}
	return nil
}
