package tensor

// fold sets d to 0 + coef[0]·b[off[0]:][:len(d)] + coef[1]·… with the terms
// added in list order, four output elements per SSE2 instruction (see
// fold_amd64.s). Every term's b row is resliced here first, so an offset
// out of range panics in Go exactly as foldGo's would, and the assembly
// only reads memory whose bounds have been checked.
func fold(d, coef []float32, off []int, b []float32) {
	n := len(d)
	off = off[:len(coef)]
	for _, o := range off {
		_ = b[o:][:n]
	}
	foldSSE(d, coef, off, b)
}

// foldSSE is fold's body in assembly. It trusts its caller: off holds
// len(coef) offsets, each with o+len(d) ≤ len(b).
//
//go:noescape
func foldSSE(d, coef []float32, off []int, b []float32)
