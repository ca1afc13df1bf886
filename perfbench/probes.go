package main

import (
	"fmt"
	"sync"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/model"
	"bagpipe/internal/nn"
	"bagpipe/internal/tensor"
	"bagpipe/internal/train"
)

// The layers below have no exported seam inside the engine, so the traced
// run measures them with standalone probes sized from the workload's own
// spec, batch size and trainer count.

// oracleProbe walks the workload's batch stream with the Oracle Cacher and
// splits every decision into per-trainer plans, as rank 0 does.
type oracleProbe struct {
	nextMs         []float64
	prefetchPerItr float64
	peakRows       int
}

func probeOracle(cfg train.Config, tr *tracer) oracleProbe {
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	o := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, cfg.NumBatches), cfg.LookAhead, cfg.NumTrainers)
	var out oracleProbe
	var rows int
	for {
		start := time.Now()
		d, ok := o.Next()
		if !ok {
			break
		}
		d.SplitPlans(cfg.NumTrainers)
		end := time.Now()
		tr.record(0, 0, fmt.Sprintf("i%d", d.Iter), "oracle.next", start, end)
		out.nextMs = append(out.nextMs, ms(end.Sub(start)))
		rows += len(d.Prefetch)
	}
	out.prefetchPerItr = float64(rows) / float64(len(out.nextMs))
	out.peakRows = o.PeakOccupancy()
	return out
}

// probeIters is how many timed iterations a compute probe runs after
// probeWarm untimed ones.
const (
	probeIters = 20
	probeWarm  = 3
)

// denseProbe times one rank's forward and backward pass over its slice of
// a batch (BatchSize/P examples), with embedding rows drawn at random.
type denseProbe struct {
	fwdMs, bwdMs []float64
}

func modelConfig(cfg train.Config) model.Config {
	return model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
}

func probeDense(cfg train.Config, tr *tracer) (denseProbe, error) {
	m, err := model.New(cfg.Model, modelConfig(cfg))
	if err != nil {
		return denseProbe{}, err
	}
	n := cfg.BatchSize / cfg.NumTrainers
	spec := cfg.Spec
	b := data.NewGenerator(spec, cfg.Seed).Batch(0, n)
	dense := tensor.NewMatrix(n, spec.NumNumeric)
	emb := tensor.NewMatrix(n, spec.NumCategorical*spec.EmbDim)
	cats := make([][]uint64, n)
	rng := tensor.NewRNG(cfg.Seed)
	for i, ex := range b.Examples {
		copy(dense.Data[i*spec.NumNumeric:], ex.Dense)
		cats[i] = ex.Cat
	}
	for i := range emb.Data {
		emb.Data[i] = (rng.Float32()*2 - 1) * 0.05
	}
	dlogits := make([]float32, n)
	var out denseProbe
	for it := 0; it < probeWarm+probeIters; it++ {
		nn.ZeroGrads(m.Params())
		t0 := time.Now()
		logits := m.Forward(dense, emb, cats)
		t1 := time.Now()
		for j, z := range logits {
			dlogits[j] = (nn.SigmoidScalar(z) - b.Examples[j].Label) / float32(cfg.BatchSize)
		}
		t2 := time.Now()
		m.Backward(dlogits)
		t3 := time.Now()
		if it < probeWarm {
			continue
		}
		g := fmt.Sprintf("i%d", it)
		tr.record(0, 0, g, "dense.fwd", t0, t1)
		tr.record(0, 0, g, "dense.bwd", t2, t3)
		out.fwdMs = append(out.fwdMs, ms(t1.Sub(t0)))
		out.bwdMs = append(out.bwdMs, ms(t3.Sub(t2)))
	}
	return out, nil
}

// probeAllReduce times the in-process collective the single-process engine
// runs each iteration: P ranks summing every dense gradient of the model,
// one AllReduceSum per parameter, as the ranks do. It returns rank 0's time
// per iteration.
func probeAllReduce(cfg train.Config, tr *tracer) ([]float64, error) {
	P := cfg.NumTrainers
	g := collective.NewGroup(P)
	params := make([][]nn.Param, P)
	for r := range params {
		m, err := model.New(cfg.Model, modelConfig(cfg))
		if err != nil {
			return nil, err
		}
		params[r] = m.Params()
		for _, p := range params[r] {
			for i := range p.Grad {
				p.Grad[i] = 1e-3
			}
		}
	}
	var times []float64
	var wg sync.WaitGroup
	for r := 0; r < P; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for it := 0; it < probeWarm+probeIters; it++ {
				start := time.Now()
				for _, p := range params[r] {
					g.AllReduceSum(r, p.Grad)
				}
				end := time.Now()
				if r == 0 && it >= probeWarm {
					tr.record(0, 0, fmt.Sprintf("i%d", it), "collective.allreduce", start, end)
					times = append(times, ms(end.Sub(start)))
				}
			}
		}(r)
	}
	wg.Wait()
	return times, nil
}
