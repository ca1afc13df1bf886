package tensor

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At(1,2)=%v want 5", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 5 {
		t.Fatalf("Row(1)[2]=%v want 5", row[2])
	}
	row[0] = 7 // Row aliases storage
	if m.At(1, 0) != 7 {
		t.Fatalf("Row must alias storage")
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	dst := NewMatrix(2, 2)
	MatMul(dst, a, b, &Workspace{})
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if dst.Data[i] != w {
			t.Fatalf("MatMul[%d]=%v want %v", i, dst.Data[i], w)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	MatMul(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(2, 2), &Workspace{})
}

// naive reference multiply used to cross-check the three layouts.
func refMul(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func transpose(m *Matrix) *Matrix {
	tm := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			tm.Set(j, i, m.At(i, j))
		}
	}
	return tm
}

func randMatrix(rng *RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

// The naive kernels below define the dense math bit for bit: every output
// element starts at 0 and adds its products in ascending k, MatMul and
// MatMulAT skipping zero coefficients of a, MatMulBT adding every term.
// The production kernels must match them to the last bit.

func naiveMatMul(dst, a, b *Matrix) {
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

func naiveMatMulBT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var s float32
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

func naiveMatMulAT(dst, a, b *Matrix) {
	dst.Zero()
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Row(i)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// bitsEqual reports whether m and o hold the same float32 bit patterns,
// any NaN matching any NaN.
func bitsEqual(m, o *Matrix) (int, bool) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return -1, false
	}
	for i, v := range m.Data {
		w := o.Data[i]
		if v != v && w != w {
			continue
		}
		if math.Float32bits(v) != math.Float32bits(w) {
			return i, false
		}
	}
	return 0, true
}

// edgyMatrix fills a rows×cols matrix with ordinary values mixed with the
// inputs that expose a changed summation: +0, -0, ±Inf, NaN, denormals and
// magnitudes whose sums round differently when regrouped.
func edgyMatrix(rng *RNG, rows, cols int) *Matrix {
	specials := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39,
		1e30, -1e30, 3e-8, 1,
	}
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch r := rng.Intn(100); {
		case r < 25:
			m.Data[i] = 0
		case r < 35:
			m.Data[i] = specials[rng.Intn(len(specials))]
		default:
			m.Data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
	}
	return m
}

// checkVariants runs all three kernels on one random edgy m×k·k×n shape
// and requires each to match its naive oracle bit for bit. Destinations
// start out full of garbage, so stale scratch or a missed store shows up.
func checkVariants(t *testing.T, rng *RNG, ws *Workspace, trial, m, k, n int) {
	t.Helper()
	garbage := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 3.25
		}
		return m
	}
	check := func(kernel string, got, want *Matrix) {
		t.Helper()
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("trial %d: %s %dx%d (k=%d) differs from the naive kernel at %d: %v (%#x) want %v (%#x)",
				trial, kernel, got.Rows, got.Cols, k, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
	a := edgyMatrix(rng, m, k)
	b := edgyMatrix(rng, k, n)

	want, got := NewMatrix(m, n), garbage(m, n)
	naiveMatMul(want, a, b)
	MatMul(got, a, b, ws)
	check("MatMul", got, want)

	bt := edgyMatrix(rng, n, k)
	want, got = NewMatrix(m, n), garbage(m, n)
	naiveMatMulBT(want, a, bt)
	MatMulBT(got, a, bt, ws)
	check("MatMulBT", got, want)

	at := edgyMatrix(rng, k, m)
	want, got = NewMatrix(m, n), garbage(m, n)
	naiveMatMulAT(want, at, b)
	MatMulAT(got, at, b, ws)
	check("MatMulAT", got, want)
}

// TestMatMulVariantsAgree requires all three kernels to reproduce the naive
// oracle bit for bit over random shapes on both sides of the narrow-output
// path and off the fold width, with signed zeros, infinities, NaNs and
// denormals in both operands. One workspace serves every call, and every
// destination starts out full of garbage, so stale scratch or a missed
// store shows up too. The oracles themselves are cross-checked against the
// plain triple loop on finite inputs.
func TestMatMulVariantsAgree(t *testing.T) {
	rng := NewRNG(42)
	var ws Workspace
	for trial := 0; trial < 4000; trial++ {
		m, k, n := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		checkVariants(t, rng, &ws, trial, m, k, n)
	}

	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := randMatrix(rng, m, k)
		b := randMatrix(rng, k, n)
		want := refMul(a, b)
		for _, c := range []struct {
			name string
			mul  func(dst *Matrix)
		}{
			{"MatMul", func(dst *Matrix) { naiveMatMul(dst, a, b) }},
			{"MatMulBT", func(dst *Matrix) { naiveMatMulBT(dst, a, transpose(b)) }},
			{"MatMulAT", func(dst *Matrix) { naiveMatMulAT(dst, transpose(a), b) }},
		} {
			got := NewMatrix(m, n)
			c.mul(got)
			if !got.AlmostEqual(want, 1e-5) {
				t.Fatalf("trial %d: naive %s disagrees with the triple loop", trial, c.name)
			}
		}
	}
}

// TestMatMulWideShapesAgree runs the kernels at real layer widths: rows of
// 255–259 elements give long vector runs, every element-tail length and
// rows that start off a 16-byte boundary, and up to 300 terms give many
// full passes before the term tail.
func TestMatMulWideShapesAgree(t *testing.T) {
	rng := NewRNG(43)
	var ws Workspace
	trial := 0
	for _, n := range []int{255, 256, 257, 259} {
		for _, k := range []int{1, 2, 3, 4, 5, 7, 13, 64, 255, 256, 297, 300} {
			checkVariants(t, rng, &ws, trial, 1+rng.Intn(4), k, n)
			trial++
		}
	}
}

// foldOracle is fold's definition one element at a time: d[j] starts at 0
// and adds coef[t]·b[off[t]+j] in list order.
func foldOracle(d, coef []float32, off []int, b []float32) {
	for j := range d {
		var s float32
		for t, c := range coef {
			s += c * b[off[t]+j]
		}
		d[j] = s
	}
}

var foldKernels = []struct {
	name string
	fold func(d, coef []float32, off []int, b []float32)
}{{"foldGo", foldGo}, {"fold", fold}}

// TestFoldKernelsMatchOracle checks the portable fold and the one this
// architecture builds (on amd64 the SSE2 kernel) directly against the
// oracle: 0–9 terms cover zero, one and two full passes with every term
// tail, 0–67 elements cover every vector run and element tail, b rows sit
// at arbitrary element offsets, and d starts off a 16-byte boundary, full
// of NaN so an element the kernel fails to zero shows.
func TestFoldKernelsMatchOracle(t *testing.T) {
	rng := NewRNG(44)
	nan := float32(math.NaN())
	for terms := 0; terms <= 9; terms++ {
		for n := 0; n <= 67; n++ {
			coef := edgyMatrix(rng, 1, terms).Data
			b := edgyMatrix(rng, 1, n+40).Data
			off := make([]int, terms)
			for i := range off {
				off[i] = rng.Intn(len(b) - n + 1)
			}
			want := make([]float32, n)
			foldOracle(want, coef, off, b)
			for _, k := range foldKernels {
				buf := make([]float32, n+1)
				for i := range buf {
					buf[i] = nan
				}
				got := buf[1:]
				k.fold(got, coef, off, b)
				if i, ok := bitsEqual(FromSlice(1, n, got), FromSlice(1, n, want)); !ok {
					t.Fatalf("%s: %d terms, n=%d: element %d is %v (%#x), want %v (%#x)",
						k.name, terms, n, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}

// TestFoldPanicsOutOfRange pins fold's safety: an offset whose row runs
// outside b, or an offset list shorter than the coefficients, panics before
// any memory is read.
func TestFoldPanicsOutOfRange(t *testing.T) {
	cases := []struct {
		name string
		coef []float32
		off  []int
	}{
		{"negative offset", []float32{1}, []int{-1}},
		{"row past the end", []float32{1, 2}, []int{0, 5}},
		{"huge offset", []float32{1}, []int{math.MaxInt}},
		{"short offset list", []float32{1, 2}, []int{0}},
	}
	for _, k := range foldKernels {
		for _, c := range cases {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", k.name, c.name)
					}
				}()
				k.fold(make([]float32, 4), c.coef, c.off, make([]float32, 8))
			}()
		}
	}
}

func TestAddRowVectorAndColSums(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	AddRowVector(m, []float32{10, 20, 30})
	want := []float32{11, 22, 33, 14, 25, 36}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddRowVector[%d]=%v want %v", i, m.Data[i], w)
		}
	}
	sums := make([]float32, 3)
	ColSums(sums, m)
	if sums[0] != 25 || sums[1] != 47 || sums[2] != 69 {
		t.Fatalf("ColSums=%v", sums)
	}
}

func TestScaleAddScaledCloneEqual(t *testing.T) {
	m := FromSlice(1, 3, []float32{1, 2, 3})
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Scale(2)
	if m.Equal(c) {
		t.Fatal("scale mutated original or Equal broken")
	}
	m.AddScaled(c, 0.5) // m += 0.5*(2m) = 2m
	want := []float32{2, 4, 6}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("AddScaled[%d]=%v want %v", i, m.Data[i], w)
		}
	}
}

func TestDotAxpyNorm(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Fatalf("Dot=%v want 32", Dot(a, b))
	}
	y := []float32{1, 1, 1}
	Axpy(2, a, y)
	if y[0] != 3 || y[1] != 5 || y[2] != 7 {
		t.Fatalf("Axpy=%v", y)
	}
	if math.Abs(float64(L2Norm([]float32{3, 4}))-5) > 1e-6 {
		t.Fatalf("L2Norm=%v want 5", L2Norm([]float32{3, 4}))
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	same := true
	a2 := NewRNG(7)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(1)
	if err := quick.Check(func(_ int) bool {
		f := rng.Float64()
		return f >= 0 && f < 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(99)
	const n = 20000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.05 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.1 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := NewRNG(3)
	m := NewMatrix(10, 10)
	XavierInit(m, 10, 10, rng)
	limit := float32(math.Sqrt(6.0 / 20.0))
	var nonzero int
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("value %v outside ±%v", v, limit)
		}
		if v != 0 {
			nonzero++
		}
	}
	if nonzero < 90 {
		t.Fatalf("only %d nonzero values; init looks broken", nonzero)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// Property: MatMul is distributive over addition in the second operand:
// A×(B+C) == A×B + A×C.
func TestMatMulDistributiveProperty(t *testing.T) {
	rng := NewRNG(12345)
	f := func(seed uint16) bool {
		r := NewRNG(uint64(seed) + rng.Uint64()%1000)
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		var ws Workspace
		a := randMatrix(r, m, k)
		b := randMatrix(r, k, n)
		c := randMatrix(r, k, n)
		bc := b.Clone()
		bc.AddScaled(c, 1)
		left := NewMatrix(m, n)
		MatMul(left, a, bc, &ws)
		ab := NewMatrix(m, n)
		MatMul(ab, a, b, &ws)
		ac := NewMatrix(m, n)
		MatMul(ac, a, c, &ws)
		ab.AddScaled(ac, 1)
		return left.AlmostEqual(ab, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// matmulShapes are one rank's Wide&Deep layers at batch 256 over P=2
// trainers: the deep MLP's first and hidden layers and the 1504→1 head.
var matmulShapes = []struct{ m, k, n int }{
	{128, 13, 256},
	{128, 256, 256},
	{128, 1504, 1},
}

// benchMatMul runs the production kernel and the naive oracle on the layer
// a×b = (m×k)·(k×n) in the layout a Linear layer uses it: forward a×b,
// weight gradient aᵀ×dout, input gradient dout×bᵀ.
func benchMatMul(b *testing.B, layout string) {
	for _, s := range matmulShapes {
		rng := NewRNG(1)
		x, w, dout := randMatrix(rng, s.m, s.k), randMatrix(rng, s.k, s.n), randMatrix(rng, s.m, s.n)
		var dst *Matrix
		var fast, naive func()
		var ws Workspace
		switch layout {
		case "forward":
			dst = NewMatrix(s.m, s.n)
			fast = func() { MatMul(dst, x, w, &ws) }
			naive = func() { naiveMatMul(dst, x, w) }
		case "AT":
			dst = NewMatrix(s.k, s.n)
			fast = func() { MatMulAT(dst, x, dout, &ws) }
			naive = func() { naiveMatMulAT(dst, x, dout) }
		case "BT":
			dst = NewMatrix(s.m, s.k)
			fast = func() { MatMulBT(dst, dout, w, &ws) }
			naive = func() { naiveMatMulBT(dst, dout, w) }
		}
		for _, k := range []struct {
			name string
			run  func()
		}{{"kernel", fast}, {"naive", naive}} {
			b.Run(fmt.Sprintf("%dx%dx%d/%s", s.m, s.k, s.n, k.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					k.run()
				}
			})
		}
	}
}

func BenchmarkMatMul(b *testing.B)   { benchMatMul(b, "forward") }
func BenchmarkMatMulAT(b *testing.B) { benchMatMul(b, "AT") }
func BenchmarkMatMulBT(b *testing.B) { benchMatMul(b, "BT") }
