package nn

import (
	"fmt"

	"bagpipe/internal/tensor"
)

// DotInteraction computes the DLRM pairwise dot-product interaction. The
// input holds NumFeat feature vectors of width Dim per example, laid out
// contiguously (row = example, cols = NumFeat*Dim). The output holds the
// NumFeat*(NumFeat-1)/2 pairwise dot products per example.
type DotInteraction struct {
	NumFeat, Dim int

	x   *tensor.Matrix
	out *tensor.Matrix
	dx  *tensor.Matrix
}

// NewDotInteraction returns the interaction over numFeat vectors of width dim.
func NewDotInteraction(numFeat, dim int) *DotInteraction {
	return &DotInteraction{NumFeat: numFeat, Dim: dim}
}

// OutDim returns the interaction output width per example.
func (d *DotInteraction) OutDim() int { return d.NumFeat * (d.NumFeat - 1) / 2 }

// Forward implements Layer.
func (d *DotInteraction) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.NumFeat*d.Dim {
		panic(fmt.Sprintf("nn: DotInteraction expected %d cols, got %d", d.NumFeat*d.Dim, x.Cols))
	}
	d.x = x
	d.out = tensor.Ensure(d.out, x.Rows, d.OutDim())
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		orow := d.out.Row(r)
		idx := 0
		for i := 0; i < d.NumFeat; i++ {
			vi := row[i*d.Dim : (i+1)*d.Dim]
			for j := i + 1; j < d.NumFeat; j++ {
				vj := row[j*d.Dim : (j+1)*d.Dim]
				orow[idx] = tensor.Dot(vi, vj)
				idx++
			}
		}
	}
	return d.out
}

// Backward implements Layer.
func (d *DotInteraction) Backward(dout *tensor.Matrix) *tensor.Matrix {
	d.dx = tensor.Ensure(d.dx, d.x.Rows, d.x.Cols)
	d.dx.Zero()
	for r := 0; r < d.x.Rows; r++ {
		row := d.x.Row(r)
		grow := d.dx.Row(r)
		dorow := dout.Row(r)
		idx := 0
		for i := 0; i < d.NumFeat; i++ {
			vi := row[i*d.Dim : (i+1)*d.Dim]
			gi := grow[i*d.Dim : (i+1)*d.Dim]
			for j := i + 1; j < d.NumFeat; j++ {
				vj := row[j*d.Dim : (j+1)*d.Dim]
				gj := grow[j*d.Dim : (j+1)*d.Dim]
				g := dorow[idx]
				idx++
				tensor.Axpy(g, vj, gi)
				tensor.Axpy(g, vi, gj)
			}
		}
	}
	return d.dx
}

// Params implements Layer.
func (d *DotInteraction) Params() []Param { return nil }

// FMSecondOrder computes the factorization-machine second-order term used
// by DeepFM over NumFeat embedding vectors of width Dim per example:
//
//	y = ½ Σ_k [ (Σ_i v_ik)² − Σ_i v_ik² ]
//
// The output is a single scalar column per example.
type FMSecondOrder struct {
	NumFeat, Dim int

	x    *tensor.Matrix
	sums *tensor.Matrix // per-example Σ_i v_i (B×Dim)
	out  *tensor.Matrix
	dx   *tensor.Matrix
}

// NewFMSecondOrder returns the FM term over numFeat vectors of width dim.
func NewFMSecondOrder(numFeat, dim int) *FMSecondOrder {
	return &FMSecondOrder{NumFeat: numFeat, Dim: dim}
}

// Forward implements Layer.
func (f *FMSecondOrder) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != f.NumFeat*f.Dim {
		panic(fmt.Sprintf("nn: FMSecondOrder expected %d cols, got %d", f.NumFeat*f.Dim, x.Cols))
	}
	f.x = x
	f.sums = tensor.Ensure(f.sums, x.Rows, f.Dim)
	f.out = tensor.Ensure(f.out, x.Rows, 1)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		srow := f.sums.Row(r)
		for k := range srow {
			srow[k] = 0
		}
		var sqSum float32
		for i := 0; i < f.NumFeat; i++ {
			vi := row[i*f.Dim : (i+1)*f.Dim]
			for k, v := range vi {
				srow[k] += v
				sqSum += v * v
			}
		}
		var total float32
		for _, s := range srow {
			total += s * s
		}
		f.out.Data[r] = 0.5 * (total - sqSum)
	}
	return f.out
}

// Backward implements Layer.
func (f *FMSecondOrder) Backward(dout *tensor.Matrix) *tensor.Matrix {
	// ∂y/∂v_ik = Σ_j v_jk − v_ik
	f.dx = tensor.Ensure(f.dx, f.x.Rows, f.x.Cols)
	for r := 0; r < f.x.Rows; r++ {
		row := f.x.Row(r)
		srow := f.sums.Row(r)
		grow := f.dx.Row(r)
		g := dout.Data[r]
		for i := 0; i < f.NumFeat; i++ {
			for k := 0; k < f.Dim; k++ {
				grow[i*f.Dim+k] = g * (srow[k] - row[i*f.Dim+k])
			}
		}
	}
	return f.dx
}

// Params implements Layer.
func (f *FMSecondOrder) Params() []Param { return nil }

// CrossLayer implements one explicit feature-crossing layer from Deep&Cross:
//
//	x_out = x0 ⊙ (x·w) + b + x
//
// where x0 is the network input (set per step via SetX0), x·w is a scalar
// per example, and b is a bias vector.
type CrossLayer struct {
	Dim   int
	W     []float32
	B     []float32
	GradW []float32
	GradB []float32

	x0  *tensor.Matrix
	x   *tensor.Matrix
	xw  []float32 // cached per-example x·w
	out *tensor.Matrix
	dx  *tensor.Matrix
	dx0 *tensor.Matrix

	params []Param
}

// NewCrossLayer returns a cross layer over width-dim inputs.
func NewCrossLayer(dim int, rng *tensor.RNG) *CrossLayer {
	c := &CrossLayer{
		Dim:   dim,
		W:     make([]float32, dim),
		B:     make([]float32, dim),
		GradW: make([]float32, dim),
		GradB: make([]float32, dim),
	}
	tensor.UniformInit(c.W, float32(1.0/float64(dim)), rng)
	c.params = []Param{
		{Name: fmt.Sprintf("cross%d.w", dim), Value: c.W, Grad: c.GradW},
		{Name: fmt.Sprintf("cross%d.b", dim), Value: c.B, Grad: c.GradB},
	}
	return c
}

// SetX0 installs the cross-network input used by every cross layer in the
// stack. Must be called before Forward each step.
func (c *CrossLayer) SetX0(x0 *tensor.Matrix) { c.x0 = x0 }

// Forward implements Layer.
func (c *CrossLayer) Forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != c.Dim {
		panic(fmt.Sprintf("nn: CrossLayer expected %d cols, got %d", c.Dim, x.Cols))
	}
	if c.x0 == nil || c.x0.Rows != x.Rows {
		panic("nn: CrossLayer.SetX0 not called for this batch")
	}
	c.x = x
	if cap(c.xw) < x.Rows {
		c.xw = make([]float32, x.Rows)
	}
	c.xw = c.xw[:x.Rows]
	c.out = tensor.Ensure(c.out, x.Rows, c.Dim)
	for r := 0; r < x.Rows; r++ {
		row := x.Row(r)
		s := tensor.Dot(row, c.W)
		c.xw[r] = s
		x0row := c.x0.Row(r)
		orow := c.out.Row(r)
		for k := 0; k < c.Dim; k++ {
			orow[k] = x0row[k]*s + c.B[k] + row[k]
		}
	}
	return c.out
}

// Backward implements Layer. The returned matrix is the gradient w.r.t. x;
// the gradient w.r.t. x0 is accumulated and available via GradX0.
func (c *CrossLayer) Backward(dout *tensor.Matrix) *tensor.Matrix {
	c.dx = tensor.Ensure(c.dx, dout.Rows, c.Dim)
	c.dx0 = tensor.Ensure(c.dx0, dout.Rows, c.Dim)
	for r := 0; r < dout.Rows; r++ {
		dorow := dout.Row(r)
		x0row := c.x0.Row(r)
		xrow := c.x.Row(r)
		dxrow := c.dx.Row(r)
		dx0row := c.dx0.Row(r)
		// dL/ds = Σ_k dout_k * x0_k ; s = x·w
		var ds float32
		for k := 0; k < c.Dim; k++ {
			ds += dorow[k] * x0row[k]
		}
		for k := 0; k < c.Dim; k++ {
			c.GradB[k] += dorow[k]
			c.GradW[k] += ds * xrow[k]
			dxrow[k] = ds*c.W[k] + dorow[k]
			dx0row[k] = dorow[k] * c.xw[r]
		}
	}
	return c.dx
}

// GradX0 returns the gradient of the loss w.r.t. the x0 input computed by
// the last Backward call.
func (c *CrossLayer) GradX0() *tensor.Matrix { return c.dx0 }

// Params implements Layer. The slice is built once; callers must not
// modify it.
func (c *CrossLayer) Params() []Param { return c.params }

// NumParams returns the number of scalar parameters in the layer.
func (c *CrossLayer) NumParams() int { return 2 * c.Dim }

// Concat2 concatenates two matrices column-wise in the forward pass and
// splits the gradient in the backward pass.
type Concat2 struct {
	aCols, bCols int
	out          *tensor.Matrix
	da, db       *tensor.Matrix
}

// Forward2 concatenates a and b (same row counts) column-wise.
func (c *Concat2) Forward2(a, b *tensor.Matrix) *tensor.Matrix {
	if a.Rows != b.Rows {
		panic("nn: Concat2 row mismatch")
	}
	c.aCols, c.bCols = a.Cols, b.Cols
	c.out = tensor.Ensure(c.out, a.Rows, a.Cols+b.Cols)
	for r := 0; r < a.Rows; r++ {
		orow := c.out.Row(r)
		copy(orow[:a.Cols], a.Row(r))
		copy(orow[a.Cols:], b.Row(r))
	}
	return c.out
}

// Backward2 splits dout into the gradients for the two inputs.
func (c *Concat2) Backward2(dout *tensor.Matrix) (da, db *tensor.Matrix) {
	c.da = tensor.Ensure(c.da, dout.Rows, c.aCols)
	c.db = tensor.Ensure(c.db, dout.Rows, c.bCols)
	for r := 0; r < dout.Rows; r++ {
		drow := dout.Row(r)
		copy(c.da.Row(r), drow[:c.aCols])
		copy(c.db.Row(r), drow[c.aCols:])
	}
	return c.da, c.db
}
