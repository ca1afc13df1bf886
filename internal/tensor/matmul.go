package tensor

import "fmt"

// The three matmul kernels fix, for every output element, the exact
// sequence of float32 additions the training math is defined by: start at
// 0 and add the products a·b in ascending k. MatMul and MatMulAT skip the
// k whose a coefficient is zero (+0 or -0) — the skip is observable when b
// holds a signed zero, an Inf or a NaN, so it is part of the result —
// while MatMulBT adds every k. Any faster kernel must reproduce those
// sequences bit for bit; the naive row loops in the tests are the oracle.
//
// The fast form collects one output row's terms (coefficient, offset of
// the b row it scales) into a Workspace and folds them into the row four
// per pass. Each pass loads and stores every output element once per four
// multiply-adds instead of once per multiply-add, and its inner loop has
// no branch. Per element it still performs the same `acc += a*b` steps in
// the same order, so FMA-fusing targets fuse the fold exactly where they
// fused the row loop. On amd64 the fold is SSE2 assembly that runs four
// output elements per instruction, each lane taking those same steps
// (fold_amd64.s); elsewhere foldGo is the fold.

// Workspace is the scratch the matmul kernels compact their operands into:
// one output row's term list and, for MatMulBT, a transposed copy of b. It
// grows to the largest shape it has seen and is reused after that, so
// steady-state calls allocate nothing. The caller owns it and passes it to
// every call; it must not serve two calls at once. The zero value is ready
// to use.
type Workspace struct {
	coef []float32
	off  []int
	bt   []float32
}

// terms returns the coefficient and offset lists sized for k terms.
func (ws *Workspace) terms(k int) ([]float32, []int) {
	if cap(ws.coef) < k {
		ws.coef = make([]float32, k)
		ws.off = make([]int, k)
	}
	return ws.coef[:k], ws.off[:k]
}

// transpose returns bᵀ (b.Cols × b.Rows, row-major) in workspace storage.
func (ws *Workspace) transpose(b *Matrix) []float32 {
	r, c := b.Rows, b.Cols
	if cap(ws.bt) < r*c {
		ws.bt = make([]float32, r*c)
	}
	bt := ws.bt[:r*c]
	for j := 0; j < r; j++ {
		for k, v := range b.Row(j) {
			bt[k*r+j] = v
		}
	}
	return bt
}

// MatMul computes dst = a × b. dst must be a.Rows × b.Cols and must not
// alias a or b.
func MatMul(dst, a, b *Matrix, ws *Workspace) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch (%dx%d)×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	if n == 1 {
		// A one-column output (the prediction heads) has too few elements
		// to pay for collecting terms: accumulate each row's dot product
		// directly, in the same order and with the same skip.
		for i := range dst.Data {
			var acc float32
			for k, av := range a.Row(i) {
				if av != 0 {
					acc += av * b.Data[k]
				}
			}
			dst.Data[i] = acc
		}
		return
	}
	coef, off := ws.terms(a.Cols)
	for i := 0; i < a.Rows; i++ {
		t := 0
		for k, av := range a.Row(i) {
			if av != 0 {
				coef[t], off[t] = av, k*n
				t++
			}
		}
		fold(dst.Row(i), coef[:t], off[:t], b.Data)
	}
}

// MatMulBT computes dst = a × bᵀ. dst must be a.Rows × b.Rows.
func MatMulBT(dst, a, b *Matrix, ws *Workspace) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulBT shape mismatch (%dx%d)×(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Rows
	bt := ws.transpose(b)
	_, off := ws.terms(b.Cols)
	for k := range off {
		off[k] = k * n
	}
	for i := 0; i < a.Rows; i++ {
		fold(dst.Row(i), a.Row(i), off, bt)
	}
}

// MatMulAT computes dst = aᵀ × b. dst must be a.Cols × b.Cols.
func MatMulAT(dst, a, b *Matrix, ws *Workspace) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulAT shape mismatch (%dx%d)ᵀ×(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	n := b.Cols
	if n == 1 {
		// Walk a row-wise as the row loop does: each dst[i] still adds
		// its terms in ascending k.
		dst.Zero()
		for k, bk := range b.Data {
			for i, av := range a.Row(k) {
				if av != 0 {
					dst.Data[i] += av * bk
				}
			}
		}
		return
	}
	m := a.Cols
	coef, off := ws.terms(a.Rows)
	for i := 0; i < m; i++ {
		t := 0
		for k, p := 0, i; k < a.Rows; k, p = k+1, p+m {
			if av := a.Data[p]; av != 0 {
				coef[t], off[t] = av, k*n
				t++
			}
		}
		fold(dst.Row(i), coef[:t], off[:t], b.Data)
	}
}

// foldGo sets d to 0 + coef[0]·b[off[0]:][:len(d)] + coef[1]·… with the
// terms added in list order, four per pass over d. It is the fold on
// architectures without an assembly one, and built on all of them so the
// tests can check it everywhere.
func foldGo(d, coef []float32, off []int, b []float32) {
	for j := range d {
		d[j] = 0
	}
	n := len(d)
	t := 0
	for ; t+4 <= len(coef); t += 4 {
		a0, a1, a2, a3 := coef[t], coef[t+1], coef[t+2], coef[t+3]
		b0 := b[off[t]:][:n]
		b1 := b[off[t+1]:][:n]
		b2 := b[off[t+2]:][:n]
		b3 := b[off[t+3]:][:n]
		for j := range d {
			s := d[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			s += a3 * b3[j]
			d[j] = s
		}
	}
	switch len(coef) - t {
	case 3:
		a0, a1, a2 := coef[t], coef[t+1], coef[t+2]
		b0 := b[off[t]:][:n]
		b1 := b[off[t+1]:][:n]
		b2 := b[off[t+2]:][:n]
		for j := range d {
			s := d[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			s += a2 * b2[j]
			d[j] = s
		}
	case 2:
		a0, a1 := coef[t], coef[t+1]
		b0 := b[off[t]:][:n]
		b1 := b[off[t+1]:][:n]
		for j := range d {
			s := d[j]
			s += a0 * b0[j]
			s += a1 * b1[j]
			d[j] = s
		}
	case 1:
		a0 := coef[t]
		b0 := b[off[t]:][:n]
		for j := range d {
			d[j] += a0 * b0[j]
		}
	}
}
