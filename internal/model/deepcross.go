package model

import (
	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
)

// DeepCross is the Deep&Cross network (Table 2 row 3): the network input
// x0 concatenates numeric features and all embeddings; an explicit cross
// network (NumCross cross layers) and a deep MLP 1024-512-256-64-48 run in
// parallel over x0; the head MLP 512-256-1 consumes their concatenation.
type DeepCross struct {
	cfg   Config
	dim   int
	cross []*nn.CrossLayer
	deep  *nn.MLP
	head  *nn.MLP

	x0Cat   nn.Concat2 // dense ++ emb → x0
	headCat nn.Concat2 // crossOut ++ deepOut → head input

	x0     *tensor.Matrix
	dl     tensor.Matrix // dlogits as a B×1 column
	dx0    *tensor.Matrix
	dEmb   *tensor.Matrix
	params []nn.Param
}

// NumCrossLayers is the cross-network depth (the DCN paper's Criteo config).
const NumCrossLayers = 6

// NewDeepCross builds Deep&Cross for the given dataset shape.
func NewDeepCross(cfg Config) *DeepCross {
	rng := tensor.NewRNG(cfg.Seed ^ 0xDC)
	dim := cfg.embDim(48)
	m := &DeepCross{cfg: cfg, dim: dim}
	x0Dim := cfg.NumNumeric + cfg.NumCategorical*dim
	for i := 0; i < NumCrossLayers; i++ {
		m.cross = append(m.cross, nn.NewCrossLayer(x0Dim, rng))
	}
	m.deep = nn.NewMLP([]int{x0Dim, 1024, 512, 256, 64, dim}, true, rng)
	m.head = nn.NewMLP([]int{x0Dim + dim, 512, 256, 1}, false, rng)
	var cross []nn.Param
	for _, c := range m.cross {
		cross = append(cross, c.Params()...)
	}
	m.params = joinParams(cross, m.deep.Params(), m.head.Params())
	return m
}

// Name implements Model.
func (m *DeepCross) Name() string { return "dc" }

// EmbDim implements Model.
func (m *DeepCross) EmbDim() int { return m.dim }

// Forward implements Model.
func (m *DeepCross) Forward(dense, emb *tensor.Matrix, _ [][]uint64) []float32 {
	m.x0 = m.x0Cat.Forward2(dense, emb)
	x := m.x0
	for _, c := range m.cross {
		c.SetX0(m.x0)
		x = c.Forward(x)
	}
	deepOut := m.deep.Forward(m.x0)
	headIn := m.headCat.Forward2(x, deepOut)
	return logitsOf(m.head.Forward(headIn))
}

// Backward implements Model.
func (m *DeepCross) Backward(dlogits []float32) *tensor.Matrix {
	dHeadIn := m.head.Backward(column(&m.dl, dlogits))
	dCross, dDeep := m.headCat.Backward2(dHeadIn)

	// cross-network backprop: walk layers in reverse, accumulating each
	// layer's gradient with respect to the shared x0. The layers only read
	// their dout, so dx starts as headCat's buffer itself.
	dx := dCross
	m.dx0 = tensor.Ensure(m.dx0, dx.Rows, dx.Cols)
	dx0 := m.dx0
	dx0.Zero()
	for i := len(m.cross) - 1; i >= 0; i-- {
		dx = m.cross[i].Backward(dx)
		dx0.AddScaled(m.cross[i].GradX0(), 1)
	}
	// the first cross layer's input IS x0
	dx0.AddScaled(dx, 1)
	dx0.AddScaled(m.deep.Backward(dDeep), 1)

	_, dEmb := m.x0Cat.Backward2(dx0)
	m.dEmb = dEmb
	return m.dEmb
}

// Params implements Model.
func (m *DeepCross) Params() []nn.Param { return m.params }

// DenseParamCount implements Model.
func (m *DeepCross) DenseParamCount() int {
	n := m.deep.NumParams() + m.head.NumParams()
	for _, c := range m.cross {
		n += c.NumParams()
	}
	return n
}
