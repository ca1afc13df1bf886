// Package model assembles the four recommendation models the paper
// evaluates (Table 2): Meta's DLRM, Google's Wide&Deep, Deep&Cross, and
// Huawei's DeepFM. All four share the structure of Figure 1 — embedding
// tables for categorical features, an MLP path for numeric features, an
// interaction stage, and a prediction head — and differ in the interaction
// and in dense-parameter count, which is what drives their different
// synchronization costs in the evaluation.
//
// A model consumes a batch as (dense features, gathered embedding rows,
// categorical IDs) and produces logits; Backward returns the gradient with
// respect to the gathered embedding rows so the training pipeline can route
// sparse updates through the cache/servers, while dense gradients accumulate
// inside the model for the optimizer.
package model

import (
	"fmt"

	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
)

// Model is a trainable recommendation model.
type Model interface {
	// Name identifies the model ("dlrm", "wd", "dc", "deepfm").
	Name() string
	// EmbDim returns the embedding-vector width the model expects.
	EmbDim() int
	// Forward computes per-example logits. dense is B×NumNumeric, emb is
	// B×(NumCategorical·EmbDim) holding the gathered embedding rows in
	// feature order, cats[i] are example i's global embedding IDs. The
	// returned slice is owned by the model and valid until the next call.
	Forward(dense, emb *tensor.Matrix, cats [][]uint64) []float32
	// Backward consumes dlogits (len B) and returns the gradient w.r.t.
	// the emb input. Dense parameter gradients are accumulated internally.
	Backward(dlogits []float32) *tensor.Matrix
	// Params returns the dense parameters and their gradients.
	Params() []nn.Param
	// DenseParamCount returns the number of scalar dense parameters
	// (the Table 2 column).
	DenseParamCount() int
}

// Config carries the dataset-shape inputs a model needs.
type Config struct {
	NumCategorical int
	NumNumeric     int
	// TotalRows is the total embedding-row count across tables; DeepFM
	// sizes its first-order "linear features" weight vector with it.
	TotalRows int64
	// EmbDim overrides the model's default embedding width if positive.
	EmbDim int
	Seed   uint64
}

func (c Config) embDim(def int) int {
	if c.EmbDim > 0 {
		return c.EmbDim
	}
	return def
}

// New constructs a model by name.
func New(name string, cfg Config) (Model, error) {
	switch name {
	case "dlrm":
		return NewDLRM(cfg), nil
	case "wd", "widedeep", "w&d":
		return NewWideDeep(cfg), nil
	case "dc", "deepcross", "d&c":
		return NewDeepCross(cfg), nil
	case "deepfm":
		return NewDeepFM(cfg), nil
	}
	return nil, fmt.Errorf("model: unknown model %q", name)
}

// Names lists the models in the paper's Table 2 order.
func Names() []string { return []string{"dlrm", "wd", "dc", "deepfm"} }

// joinParams concatenates parameter lists into one exactly-sized slice.
// Models build it once at construction, so Params is free per step.
func joinParams(groups ...[]nn.Param) []nn.Param {
	var ps []nn.Param
	for _, g := range groups {
		ps = append(ps, g...)
	}
	return ps[:len(ps):len(ps)]
}

// column points the model-owned header h at dlogits as a B×1 matrix, so
// the backward pass wraps the loss gradient without allocating.
func column(h *tensor.Matrix, dlogits []float32) *tensor.Matrix {
	*h = tensor.Matrix{Rows: len(dlogits), Cols: 1, Data: dlogits}
	return h
}

// logitsOf extracts a column-0 view of a B×1 matrix as a logits slice.
func logitsOf(m *tensor.Matrix) []float32 {
	if m.Cols != 1 {
		panic(fmt.Sprintf("model: head output has %d cols, want 1", m.Cols))
	}
	return m.Data
}

// DLRM is Meta's Deep Learning Recommendation Model (Table 2 row 1):
// bottom MLP 13-512-256-64-48 over numeric features, pairwise dot-product
// interaction over the 26 embeddings plus the bottom output, and top MLP
// 1024-1024-1024-256-128-1 over the concatenated bottom output and
// interactions.
type DLRM struct {
	cfg    Config
	dim    int
	bottom *nn.MLP
	inter  *nn.DotInteraction
	top    *nn.MLP

	featCat nn.Concat2 // emb ++ bottomOut → interaction input
	topCat  nn.Concat2 // bottomOut ++ interOut → top input

	embCols int
	dl      tensor.Matrix // dlogits as a B×1 column
	dBot    *tensor.Matrix
	dEmb    *tensor.Matrix
	params  []nn.Param
}

// NewDLRM builds DLRM for the given dataset shape.
func NewDLRM(cfg Config) *DLRM {
	rng := tensor.NewRNG(cfg.Seed ^ 0xD1)
	dim := cfg.embDim(48)
	m := &DLRM{cfg: cfg, dim: dim}
	m.bottom = nn.NewMLP([]int{cfg.NumNumeric, 512, 256, 64, dim}, true, rng)
	numFeat := cfg.NumCategorical + 1
	m.inter = nn.NewDotInteraction(numFeat, dim)
	topIn := dim + m.inter.OutDim()
	m.top = nn.NewMLP([]int{topIn, 1024, 1024, 1024, 256, 128, 1}, false, rng)
	m.embCols = cfg.NumCategorical * dim
	m.params = joinParams(m.bottom.Params(), m.top.Params())
	return m
}

// Name implements Model.
func (m *DLRM) Name() string { return "dlrm" }

// EmbDim implements Model.
func (m *DLRM) EmbDim() int { return m.dim }

// Forward implements Model.
func (m *DLRM) Forward(dense, emb *tensor.Matrix, _ [][]uint64) []float32 {
	bot := m.bottom.Forward(dense)
	feats := m.featCat.Forward2(emb, bot)
	inter := m.inter.Forward(feats)
	topIn := m.topCat.Forward2(bot, inter)
	return logitsOf(m.top.Forward(topIn))
}

// Backward implements Model.
func (m *DLRM) Backward(dlogits []float32) *tensor.Matrix {
	dTopIn := m.top.Backward(column(&m.dl, dlogits))
	dBot1, dInter := m.topCat.Backward2(dTopIn)
	dFeats := m.inter.Backward(dInter)
	dEmbView, dBot2 := m.featCat.Backward2(dFeats)
	m.dBot = tensor.Ensure(m.dBot, dBot1.Rows, dBot1.Cols)
	copy(m.dBot.Data, dBot1.Data)
	m.dBot.AddScaled(dBot2, 1)
	m.bottom.Backward(m.dBot)
	m.dEmb = dEmbView
	return m.dEmb
}

// Params implements Model.
func (m *DLRM) Params() []nn.Param { return m.params }

// DenseParamCount implements Model.
func (m *DLRM) DenseParamCount() int { return m.bottom.NumParams() + m.top.NumParams() }

// WideDeep is Google's Wide&Deep (Table 2 row 2): a deep MLP 13-256-256-256
// over numeric features, with the prediction head a linear layer over the
// concatenation of the deep output and all embedding vectors (this exact
// head reproduces Table 2's 136,673 dense parameters for Criteo: 135,168
// MLP + 256+26·48+1 head).
type WideDeep struct {
	cfg  Config
	dim  int
	deep *nn.MLP
	head *nn.Linear
	cat  nn.Concat2

	dl     tensor.Matrix // dlogits as a B×1 column
	dEmb   *tensor.Matrix
	params []nn.Param
}

// NewWideDeep builds Wide&Deep for the given dataset shape.
func NewWideDeep(cfg Config) *WideDeep {
	rng := tensor.NewRNG(cfg.Seed ^ 0x3D)
	dim := cfg.embDim(48)
	m := &WideDeep{cfg: cfg, dim: dim}
	m.deep = nn.NewMLP([]int{cfg.NumNumeric, 256, 256, 256}, true, rng)
	m.head = nn.NewLinear(256+cfg.NumCategorical*dim, 1, rng)
	m.params = joinParams(m.deep.Params(), m.head.Params())
	return m
}

// Name implements Model.
func (m *WideDeep) Name() string { return "wd" }

// EmbDim implements Model.
func (m *WideDeep) EmbDim() int { return m.dim }

// Forward implements Model.
func (m *WideDeep) Forward(dense, emb *tensor.Matrix, _ [][]uint64) []float32 {
	deep := m.deep.Forward(dense)
	headIn := m.cat.Forward2(deep, emb)
	return logitsOf(m.head.Forward(headIn))
}

// Backward implements Model.
func (m *WideDeep) Backward(dlogits []float32) *tensor.Matrix {
	dHeadIn := m.head.Backward(column(&m.dl, dlogits))
	dDeep, dEmb := m.cat.Backward2(dHeadIn)
	m.deep.Backward(dDeep)
	m.dEmb = dEmb
	return m.dEmb
}

// Params implements Model.
func (m *WideDeep) Params() []nn.Param { return m.params }

// DenseParamCount implements Model.
func (m *WideDeep) DenseParamCount() int { return m.deep.NumParams() + m.head.NumParams() }
