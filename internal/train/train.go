// Package train is Bagpipe's execution engine: it wires the Oracle Cacher,
// the trainer-side caches, the sharded embedding servers (behind a
// transport), the recommendation models, and the collective layer into
// concurrent training pipelines, plus a baseline fetch-per-batch trainer
// every engine is differentially tested against. Four drivers share one
// deterministic compute core:
//
//   - RunBaseline — no cache, no lookahead, no overlap (§2.3 of the
//     paper); the differential ground truth.
//   - RunPipelined — one shared cache, staged oracle → prefetch pool →
//     trainer ranks → maintenance pipeline (§4).
//   - RunLRPP — P trainers with partitioned LRPP caches, replica pushes
//     and delayed gradient sync over a trainer mesh (§3.3), all in one
//     process.
//   - RunLRPPWorker — exactly one LRPP trainer per process: plans,
//     collectives, replicas, and sync flushes all cross a transport.Mesh
//     (TCP in production, in-process/simulated in tests); rank 0 hosts the
//     oracle (worker.go).
//
// The oracle walks the batch stream ℒ iterations ahead of training and its
// decisions drive everything: what the prefetch workers fetch, how long the
// cache keeps each row (TTL), and what maintenance writes back after
// eviction. A token scheme bounds each pipeline so a prefetch for
// iteration x is issued only after the write-backs of iteration x−ℒ have
// completed — exactly the window for which the oracle's consistency
// argument (§3.2) guarantees the servers cannot serve a stale row. The
// LRPP engines enforce the window per partition; ownership disjointness
// composes the per-trainer windows into the global guarantee.
//
// Every engine drives the same deterministic rank machinery: data-parallel
// model replicas whose dense gradients and loss are combined in one fused
// collective round per iteration, folded in rank order from zero
// (collective.Group in-process; meshColl across processes — meshcoll.go),
// and per-row gradient contributions folded in batch-example order with one
// optimizer update per (row, iteration). Over the same Config, every
// engine × fabric combination therefore produces bit-identical
// embedding-server state — the end-to-end property the differential tests
// and the fuzz harness (lrpp_fuzz_test.go) enforce under -race.
package train

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/model"
	"bagpipe/internal/nn"
	"bagpipe/internal/optim"
	"bagpipe/internal/tensor"
	"bagpipe/internal/transport"
)

// Config describes one training run.
type Config struct {
	Spec *data.Spec
	Seed uint64

	Model     string // "dlrm", "wd", "dc", "deepfm"
	Optimizer string // "sgd", "momentum", "adagrad", "adam"
	LR        float32

	BatchSize  int
	NumBatches int

	// LookAhead is ℒ, the oracle window in batches (pipelined engine only).
	LookAhead int
	// NumTrainers is the data-parallel rank count.
	NumTrainers int
	// PrefetchWorkers sizes the prefetch pool; 0 means 2.
	PrefetchWorkers int
	// Partitioner assigns examples to ranks; nil means core.Contiguous.
	Partitioner core.Partitioner

	// SyncEager, when true, makes the LRPP engine flush every cross-trainer
	// gradient contribution as soon as its iteration's backward pass ends,
	// instead of delaying non-critical contributions one iteration off the
	// critical path (the §3.3 "Delayed Synchronization" default).
	SyncEager bool
	// SyncCompress quantizes replica row pushes to float16 on the mesh,
	// halving replica bytes. Lossy: the final state is no longer
	// bit-identical to the baseline, so it cannot be combined with
	// differential verification; the tests pin the lossless default.
	SyncCompress bool
	// SyncCompressGrad quantizes delayed-sync gradient flushes to float16 at
	// the sender with per-(owner, row) error feedback: each flush's f16
	// rounding error is carried and injected into the row's next flush
	// (efsync.go), so compression error stays bounded instead of
	// accumulating. Halves sync-class mesh bytes. Lossy like SyncCompress:
	// deterministic across runs and fabrics, but not bit-identical to the
	// lossless baseline, so it cannot be combined with differential
	// verification.
	SyncCompressGrad bool
	// Hooks, when non-nil, receives LRPP engine events for invariant
	// auditing (differential + fuzz harness). Nil in production runs.
	Hooks *LRPPHooks
	// Progress, when non-nil, is updated live with the write-back epoch and
	// completed-example count so an observer in the same process (the
	// serving front end) can bound staleness and measure interference
	// without touching engine internals. LRPP engine only.
	Progress *Progress
}

func (c *Config) validate() error {
	if c.Spec == nil {
		return fmt.Errorf("train: nil spec")
	}
	if c.BatchSize <= 0 || c.NumBatches <= 0 {
		return fmt.Errorf("train: need positive batch size and count, got %d/%d", c.BatchSize, c.NumBatches)
	}
	if c.NumTrainers <= 0 {
		return fmt.Errorf("train: need at least one trainer, got %d", c.NumTrainers)
	}
	return nil
}

func (c *Config) partitioner() core.Partitioner {
	if c.Partitioner != nil {
		return c.Partitioner
	}
	return core.Contiguous{}
}

func (c *Config) prefetchWorkers() int {
	if c.PrefetchWorkers > 0 {
		return c.PrefetchWorkers
	}
	return 2
}

// newOptimizers builds the dense optimizer for one rank and the shared
// row-wise optimizer for embedding updates. Every optim type implements
// both interfaces, so name resolution is shared.
func newOptimizer(name string, lr float32) (interface {
	optim.Optimizer
	optim.RowOptimizer
}, error) {
	switch name {
	case "", "sgd":
		return optim.NewSGD(lr), nil
	case "momentum":
		return optim.NewMomentum(lr, 0.9), nil
	case "adagrad":
		return optim.NewAdagrad(lr), nil
	case "adam":
		return optim.NewAdam(lr), nil
	}
	return nil, fmt.Errorf("train: unknown optimizer %q", name)
}

// Result summarizes a finished run.
type Result struct {
	Engine   string
	Iters    int
	Examples int64
	Elapsed  time.Duration

	FirstLoss, LastLoss float32
	AvgLoss             float64

	// Oracle-derived cache statistics (zero for the baseline engine).
	UniqueIDs  int64 // unique embedding IDs across iterations
	CachedHits int64 // served from the trainer cache
	Prefetched int64 // fetched from the embedding servers
	Evicted    int64 // rows written back on eviction
	PeakCache  int   // peak cached rows (LRPP: sum of per-partition peaks, an upper bound on the simultaneous total)

	// Overlap counters: how many times one stage was observed running
	// while the trainer computed (evidence the stages actually pipeline).
	OverlapPrefetchTrain int64
	OverlapMaintTrain    int64

	// LRPP engine only: cross-trainer traffic over the mesh.
	ReplicaRows    int64 // owner→user row snapshots for remote reads
	SyncEntries    int64 // per-example gradient contributions routed to owners
	UrgentFlushes  int64 // sync batches flushed on the critical path (needed next iter)
	DelayedFlushes int64 // sync batches flushed off the critical path
	Mesh           transport.MeshStats
	// MeshClasses splits the mesh traffic this process *sent* by protocol
	// phase — the counters that prove (rather than assert) the fused
	// collectives' frame reduction. Collective and plan frames only cross
	// the mesh in worker mode; replica and sync frames cross it in every
	// multi-trainer LRPP run.
	MeshClasses MeshTraffic

	Transport transport.Stats
	// StoreServers splits the embedding-tier traffic by backend server:
	// fetch/write frames (per-server sub-batch RPCs) and payload bytes,
	// one entry per server in tier order, summed across this process's
	// trainers. The per-server counterpart of MeshClasses: it is what
	// proves — from counters, not assertions — that a -servers S run
	// actually fanned its traffic out S ways. Transport is the field-wise
	// sum of these entries.
	StoreServers []transport.Stats

	// Tier is the embedding-tier failure-handling snapshot (replication
	// factor, failovers served by a non-primary replica, per-server RPC
	// retries, dead servers), summed across this process's trainers. Nil
	// when the store does not replicate (single-server tiers and plain
	// sharded stores report no health state worth printing).
	Tier *transport.TierHealth
}

// tierHealther is the optional Store face that exposes failover counters;
// *transport.ShardedStore implements it.
type tierHealther interface {
	TierHealth() transport.TierHealth
}

// addTierHealth folds tr's failure-handling counters into res.Tier, if tr
// exposes any and they are worth reporting (the tier replicates or has
// already lost a server).
func addTierHealth(res *Result, tr transport.Store) {
	th, ok := tr.(tierHealther)
	if !ok {
		return
	}
	h := th.TierHealth()
	if h.Replicate <= 1 && len(h.Dead) == 0 && h.Revived == 0 && h.RoutingEpoch == 0 {
		return
	}
	if res.Tier == nil {
		res.Tier = &transport.TierHealth{Servers: h.Servers, Replicate: h.Replicate}
	}
	res.Tier.Failovers += h.Failovers
	res.Tier.Retries += h.Retries
	res.Tier.Revived += h.Revived
	res.Tier.ResyncRows += h.ResyncRows
	// Reshard progress is tier-global, not additive across trainers: every
	// client converges on the same epoch, and the stream counters live in
	// whichever client drove the migration. Report the max of each.
	if h.RoutingEpoch > res.Tier.RoutingEpoch {
		res.Tier.RoutingEpoch = h.RoutingEpoch
	}
	if h.ReshardParts > res.Tier.ReshardParts {
		res.Tier.ReshardParts = h.ReshardParts
	}
	if h.ReshardRows > res.Tier.ReshardRows {
		res.Tier.ReshardRows = h.ReshardRows
	}
	if h.ReshardBytes > res.Tier.ReshardBytes {
		res.Tier.ReshardBytes = h.ReshardBytes
	}
	// The final tier width under the installed routing, not the launch
	// width: a resharded run reports where it ended up.
	if h.Servers > 0 {
		res.Tier.Servers = h.Servers
	}
	for _, d := range h.Dead {
		seen := false
		for _, have := range res.Tier.Dead {
			if have == d {
				seen = true
				break
			}
		}
		if !seen {
			res.Tier.Dead = append(res.Tier.Dead, d)
		}
	}
	sort.Ints(res.Tier.Dead)
}

// MeshTraffic is per-phase mesh accounting: frames and declared bytes,
// split by what the frame carried.
type MeshTraffic struct {
	ReplicaMsgs, ReplicaBytes int64 // owner→reader row snapshots
	SyncMsgs, SyncBytes       int64 // delayed-sync flush frames
	CollMsgs, CollBytes       int64 // collective contributions/results
	PlanMsgs, PlanBytes       int64 // oracle plans (rank 0 → peers)
}

// HitRate returns the fraction of unique-ID accesses served by the cache.
func (r *Result) HitRate() float64 {
	if r.UniqueIDs == 0 {
		return 0
	}
	return float64(r.CachedHits) / float64(r.UniqueIDs)
}

// Throughput returns examples per second.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Examples) / r.Elapsed.Seconds()
}

// ranks is the deterministic data-parallel compute core shared by both
// engines: NumTrainers model replicas, each stepped by its own dense
// optimizer, synchronized with a rank-ordered all-reduce so every replica
// stays bit-identical regardless of goroutine scheduling.
type ranks struct {
	n        int
	dim      int
	numCat   int
	numDense int
	models   []model.Model
	opts     []optim.Optimizer
	group    *collective.Group
	in       []chan rankWork
	out      []chan rankResult
	wg       sync.WaitGroup
}

type rankWork struct {
	batch  *data.Batch
	assign []int
	rows   map[uint64][]float32 // id → current row (read-only for ranks)
}

type rankResult struct {
	loss float64        // partial loss, already scaled by 1/B
	dEmb *tensor.Matrix // gradient w.r.t. this rank's gathered rows
	mine []int          // example indices (batch order) this rank computed
}

// newRanks builds the replicas. All replicas share the model seed, so they
// start bit-identical; rank-ordered all-reduce keeps them that way.
func newRanks(cfg *Config) (*ranks, error) {
	mcfg := model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
	r := &ranks{
		n:        cfg.NumTrainers,
		dim:      cfg.Spec.EmbDim,
		numCat:   cfg.Spec.NumCategorical,
		numDense: cfg.Spec.NumNumeric,
		group:    collective.NewGroup(cfg.NumTrainers),
	}
	for i := 0; i < r.n; i++ {
		m, err := model.New(cfg.Model, mcfg)
		if err != nil {
			return nil, err
		}
		opt, err := newOptimizer(cfg.Optimizer, cfg.LR)
		if err != nil {
			return nil, err
		}
		r.models = append(r.models, m)
		r.opts = append(r.opts, opt)
		r.in = append(r.in, make(chan rankWork))
		r.out = append(r.out, make(chan rankResult))
	}
	for i := 0; i < r.n; i++ {
		r.wg.Add(1)
		go r.run(i)
	}
	return r, nil
}

// run is one rank goroutine: it extracts its partition of each batch,
// runs forward/backward, all-reduces the dense gradients across ranks in
// one fused rank-ordered round, and steps its replica.
func (r *ranks) run(rank int) {
	defer r.wg.Done()
	m := r.models[rank]
	opt := r.opts[rank]
	params := m.Params()
	segs := make([][]float32, len(params))
	for i, p := range params {
		segs[i] = p.Grad
	}
	var dlogits []float32
	for w := range r.in[rank] {
		ls := extractLocal(w.batch, w.assign, rank, r.numCat, r.numDense, r.dim, w.rows)
		loss, dEmb := computeLocal(m, ls, &dlogits)
		// Every rank joins every collective (idle ranks contribute zeros)
		// and steps the summed gradient, keeping all replicas bit-identical.
		r.group.FusedAllReduce(rank, segs, nil)
		opt.Step(params)
		r.out[rank] <- rankResult{loss: loss, dEmb: dEmb, mine: ls.mine}
	}
}

// localSlice is one rank's partition of a batch, extracted in batch order.
// It is the unit of compute shared by the shared-cache ranks and the LRPP
// trainer processes, so both engines run bit-identical math.
type localSlice struct {
	mine   []int // example indices (batch order) this rank computes
	dense  *tensor.Matrix
	emb    *tensor.Matrix
	cats   [][]uint64
	labels []float32
	full   int // full batch size (loss/gradient scaling)
}

// extractLocal gathers rank's examples of b and their embedding rows. The
// dense width is a parameter rather than read off b.Examples[0]: a batch
// that arrived in a worker's PlanMsg is sparse — only this rank's assigned
// examples are populated — and example 0 may be an empty slot.
func extractLocal(b *data.Batch, assign []int, rank, numCat, numDense, dim int, rows map[uint64][]float32) *localSlice {
	var mine []int
	for i, t := range assign {
		if t == rank {
			mine = append(mine, i)
		}
	}
	nLocal := len(mine)
	ls := &localSlice{
		mine:   mine,
		dense:  tensor.NewMatrix(nLocal, numDense),
		emb:    tensor.NewMatrix(nLocal, numCat*dim),
		cats:   make([][]uint64, nLocal),
		labels: make([]float32, nLocal),
		full:   len(b.Examples),
	}
	for k, i := range mine {
		ex := b.Examples[i]
		copy(ls.dense.Data[k*ls.dense.Cols:(k+1)*ls.dense.Cols], ex.Dense)
		for c, id := range ex.Cat {
			copy(ls.emb.Data[k*ls.emb.Cols+c*dim:k*ls.emb.Cols+(c+1)*dim], rows[id])
		}
		ls.cats[k] = ex.Cat
		ls.labels[k] = ex.Label
	}
	return ls
}

// computeLocal runs forward/backward for one rank's slice, accumulating
// dense gradients into the model and returning the partial loss plus the
// gradient w.r.t. the gathered embedding rows (nil for an idle rank).
// dlogits is the rank's reusable loss-gradient buffer, grown as needed.
func computeLocal(m model.Model, ls *localSlice, dlogits *[]float32) (float64, *tensor.Matrix) {
	nn.ZeroGrads(m.Params())
	if len(ls.mine) == 0 { // a partitioner may leave a rank idle for a batch
		return 0, nil
	}
	logits := m.Forward(ls.dense, ls.emb, ls.cats)
	// Loss and dlogits are scaled by the FULL batch size, so the
	// sum of per-rank dense gradients equals the full-batch mean
	// gradient the baseline math defines.
	invB := float32(1) / float32(ls.full)
	if cap(*dlogits) < len(ls.mine) {
		*dlogits = make([]float32, len(ls.mine))
	}
	dl := (*dlogits)[:len(ls.mine)]
	var loss float64
	for j, z := range logits {
		loss += float64(stableBCE(z, ls.labels[j])) * float64(invB)
		dl[j] = (nn.SigmoidScalar(z) - ls.labels[j]) * invB
	}
	return loss, m.Backward(dl)
}

// stableBCE is the numerically stable per-example binary cross-entropy
// term max(z,0) − z·y + log1p(exp(−|z|)) (unscaled).
func stableBCE(z, y float32) float32 {
	t := z
	if t < 0 {
		t = 0
	}
	abs := z
	if abs < 0 {
		abs = -abs
	}
	return t - z*y + float32(math.Log1p(math.Exp(float64(-abs))))
}

// step runs one synchronized iteration across all ranks and returns the
// full-batch loss plus the per-ID embedding gradients, accumulated in
// batch-example order so the result is independent of rank scheduling.
func (r *ranks) step(b *data.Batch, assign []int, rows map[uint64][]float32) (float32, map[uint64][]float32) {
	for i := 0; i < r.n; i++ {
		r.in[i] <- rankWork{batch: b, assign: assign, rows: rows}
	}
	results := make([]rankResult, r.n)
	var loss float64
	for i := 0; i < r.n; i++ {
		results[i] = <-r.out[i]
		loss += results[i].loss
	}
	// pos[i] = position of example i inside its rank's sub-batch.
	pos := make([]int, len(b.Examples))
	counts := make([]int, r.n)
	for i, t := range assign {
		pos[i] = counts[t]
		counts[t]++
	}
	grads := make(map[uint64][]float32, len(rows))
	for i, ex := range b.Examples {
		res := results[assign[i]]
		row := res.dEmb.Data[pos[i]*res.dEmb.Cols : (pos[i]+1)*res.dEmb.Cols]
		for c, id := range ex.Cat {
			g, ok := grads[id]
			if !ok {
				g = make([]float32, r.dim)
				grads[id] = g
			}
			collective.AddF32(g, row[c*r.dim:(c+1)*r.dim])
		}
	}
	return float32(loss), grads
}

// close shuts the rank goroutines down.
func (r *ranks) close() {
	for i := 0; i < r.n; i++ {
		close(r.in[i])
	}
	r.wg.Wait()
}

// sortedIDs returns the keys of m in ascending order.
func sortedIDs(m map[uint64][]float32) []uint64 {
	ids := make([]uint64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
