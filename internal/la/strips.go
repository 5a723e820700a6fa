package la

// This file holds the Sec. V-B rank-strip helpers both executor
// families use: a rank strip is a column range [rr, rr+w) of a factor
// or output matrix, packed into a contiguous buffer ("stacked strips")
// so the kernels read it with unit row stride.

// SetStrip points view at columns [rr, rr+w) of src, sharing src's
// storage and stride. The view header is a pooled value so narrowing
// to a strip allocates nothing; for packed buffers (rr == 0) the kept
// stride makes the buffer reusable for the final, possibly narrower,
// strip.
//
//spblock:hotpath
func SetStrip(view, src *Matrix, rr, w int) {
	view.Rows = src.Rows
	view.Cols = w
	view.Stride = src.Stride
	view.Data = src.Data[rr:]
}

// PackStrip copies src columns [rr, rr+dst.Cols) into dst.
//
//spblock:hotpath
func PackStrip(dst, src *Matrix, rr int) {
	w := dst.Cols
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Row(i), src.Data[i*src.Stride+rr:i*src.Stride+rr+w])
	}
}

// UnpackStrip copies the packed strip src back into dst columns
// [rr, rr+src.Cols).
//
//spblock:hotpath
func UnpackStrip(dst, src *Matrix, rr int) {
	w := src.Cols
	for i := 0; i < src.Rows; i++ {
		copy(dst.Data[i*dst.Stride+rr:i*dst.Stride+rr+w], src.Row(i))
	}
}
