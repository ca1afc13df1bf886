package train

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/collective"
	"bagpipe/internal/core"
	"bagpipe/internal/data"
	"bagpipe/internal/model"
	"bagpipe/internal/optim"
	"bagpipe/internal/transport"
)

// LRPPHooks receives engine events for invariant auditing by the
// differential and fuzz harness. Callbacks run synchronously on engine
// goroutines (several concurrently — implementations must synchronize
// themselves) and must not call back into the engine. All hooks are
// optional; a nil LRPPHooks (the production default) costs nothing.
type LRPPHooks struct {
	// OnPrefetch fires on trainer's dispatcher immediately before the ids
	// are fetched from the embedding servers.
	OnPrefetch func(trainer, iter int, ids []uint64)
	// OnInsert fires as a fetched row enters the owner's cache partition.
	OnInsert func(trainer, iter int, id uint64)
	// OnSyncApply fires as iteration iter's merged gradient lands on the
	// owner's cached row.
	OnSyncApply func(owner, iter int, id uint64)
	// OnEvict fires as the row leaves the owner's partition (TTL expiry).
	OnEvict func(owner, iter int, id uint64)
	// OnWriteBack fires after the owner wrote iteration iter's dirty
	// evictions to the embedding servers.
	OnWriteBack func(owner, iter int, ids []uint64)
	// OnRetire fires when iteration iter is fully retired on the owner
	// (write-backs done, lookahead token released). Strictly in iteration
	// order per trainer.
	OnRetire func(owner, iter int)
}

// contribEntry is one example's gradient for one embedding row — the unit
// the owners merge. The Example field is the example's index in the full
// batch, so owners can re-fold contributions in exact batch order no matter
// which trainer computed them or in which order the mesh delivered them.
// It is the transport wire type directly: the engine's mesh payloads
// (transport.ReplicaMsg, transport.SyncBatchMsg, and in worker mode
// transport.PlanMsg / transport.FusedCollMsg) are identical over in-process,
// simulated, and TCP fabrics — only the TCP mesh additionally runs them
// through the little-endian codec.
type contribEntry = transport.Contrib

// syncElem is the declared per-gradient-element wire cost: 4 bytes for
// float32 entries, 2 once -sync-compress-grad quantized the flush to f16.
func syncElem(f16 bool) int64 {
	if f16 {
		return 2
	}
	return 4
}

func syncMsgBytes(entries map[uint64][]contribEntry, dim int, elem int64) int64 {
	b := int64(8) // iteration header
	for _, es := range entries {
		b += 8 + int64(len(es))*(4+elem*int64(dim))
	}
	return b
}

// syncBatchBytes is the declared wire size of one coalesced sync frame:
// a flush count plus one SyncMsg body per iteration table.
func syncBatchBytes(flushes []transport.SyncMsg, dim int) int64 {
	b := int64(4)
	for _, f := range flushes {
		b += syncMsgBytes(f.Entries, dim, syncElem(f.F16))
	}
	return b
}

// replicaMsgBytes models the wire size of one replica push; quantized rows
// cost 2 bytes per element instead of 4.
func replicaMsgBytes(rows map[uint64][]float32, dim int, quant bool) int64 {
	elem := int64(4)
	if quant {
		elem = 2
	}
	return 8 + int64(len(rows))*(8+elem*int64(dim))
}

// lrppColl is the collective layer a trainer steps its dense gradients and
// loss through, as one fused round per iteration: the in-process
// collective.Group when all trainers share an address space, or the
// mesh-based reducer (meshColl, meshcoll.go) when each trainer is its own
// process. Every implementation folds per segment in rank order from zero,
// so the result bits are identical.
type lrppColl = collective.Collective

// Mesh traffic classes for per-phase accounting (Result.MeshClasses).
const (
	classReplica = iota
	classSync
	classColl
	classPlan
	numClasses
)

// lrppEngine is the per-process engine state: shared by all trainers of
// the run in single-process mode, owned by the one local trainer in worker
// mode.
type lrppEngine struct {
	cfg    *Config
	dim    int
	P, L   int
	lag    int // delayed-sync flush lag in iterations (0 or 1)
	mesh   transport.Mesh
	coll   lrppColl
	hooks  *LRPPHooks
	prog   *Progress
	worker bool // each trainer is its own process; record losses locally

	losses []float64 // full-batch loss per iteration (written by trainer 0)

	replicaRows    atomic.Int64
	syncEntries    atomic.Int64
	urgentFlushes  atomic.Int64
	delayedFlushes atomic.Int64
	activeTrain    atomic.Int64
	activePrefetch atomic.Int64
	activeMaint    atomic.Int64
	overlapPT      atomic.Int64
	overlapMT      atomic.Int64

	// Per-phase mesh traffic sent by this process (frames + declared
	// bytes), indexed by class.
	classMsgs  [numClasses]atomic.Int64
	classBytes [numClasses]atomic.Int64
}

// countSend charges one sent mesh frame to its traffic class.
func (eng *lrppEngine) countSend(class int, bytes int64) {
	eng.classMsgs[class].Add(1)
	eng.classBytes[class].Add(bytes)
}

// rankBits is a trainer-set bitmask. The LRPP engine caps at 64 ranks
// (newLRPPTrainer enforces it), which lets the per-(id, iteration)
// contributor bookkeeping and the per-iteration replica-arrival set live in
// one machine word each instead of a map allocated per merge.
type rankBits uint64

func (b rankBits) has(r int) bool { return b&(1<<uint(r)) != 0 }
func (b *rankBits) set(r int)     { *b |= 1 << uint(r) }

// clearBit drops rank r's bit and reports whether it was set.
func (b *rankBits) clearBit(r int) bool {
	was := b.has(r)
	*b &^= 1 << uint(r)
	return was
}

// idMergeQueue sequences one owned id's pending per-iteration merges.
// Iterations are appended in order by the owner's registration and applied
// strictly in that order, so the row replays the exact update sequence the
// single-process engines produce. Queues and their iterMerge records are
// pooled on the trainer: an id's queue returns to the free list when its
// last merge drains, so the steady state recycles instead of allocating.
type idMergeQueue struct {
	iters  []int
	byIter map[int]*iterMerge
}

// iterMerge accumulates one (id, iteration)'s contributions until every
// expected trainer has reported (expectN bits still set in expect).
type iterMerge struct {
	expect  rankBits
	expectN int
	entries []contribEntry
}

// flushItem hands one iteration's remote contributions to the delayed-sync
// flusher, split by criticality.
type flushItem struct {
	iter   int
	urgent map[int]map[uint64][]contribEntry // owner → id → entries; needed next iter
	lazy   map[int]map[uint64][]contribEntry // deferrable off the critical path
}

// lrppWork is one iteration moving through a trainer's private pipeline.
type lrppWork struct {
	plan *core.TrainerPlan
	rows chan [][]float32 // buffered(1); the prefetch goroutine delivers once
}

// lrppTrainer is one trainer process: a model replica, the owned LRPP
// cache partition, and the goroutines serving it.
type lrppTrainer struct {
	p   int
	eng *lrppEngine

	model   model.Model
	dlogits []float32 // computeLocal's loss-gradient buffer
	opt     optim.Optimizer
	rowOpt  interface {
		optim.Optimizer
		optim.RowOptimizer
	}
	tr transport.Store
	ep transport.Endpoint

	// Worker mode only (nil otherwise): the mesh-based collective reducer
	// and the plan resequencer fed by the receiver goroutine.
	mcoll   *meshColl
	planBox *planSeq

	// mu guards everything below: the cache partition is touched by the
	// trainer loop (insert/read) and the sync receiver (update/evict).
	mu   sync.Mutex
	cond *sync.Cond

	cache       *core.Cache
	merges      map[uint64]*idMergeQueue
	expiring    map[int]int                  // iter → owned rows still to evict
	evbatch     map[int][]core.Eviction      // iter → collected write-backs
	computeDone map[int]bool                 // iter → trainer loop finished it
	emitted     map[int]bool                 // iter → eviction batch sent to maintenance
	repRows     map[int]map[uint64][]float32 // iter → replica rows received (pooled maps/rows, owned here)
	repFrom     map[int]rankBits             // iter → owners heard from

	// Hot-path scratch, all guarded by mu (or touched only by the single
	// trainer-loop goroutine where noted): the arena rows and pooled maps
	// every fetch/replica/write-back recycles through, the shared gradient
	// fold buffer, the reusable gather map (trainer loop only), and the
	// merge-record and eviction-batch free lists.
	arena    *transport.RowArena
	foldBuf  []float32
	gathered map[uint64][]float32
	freeIM   []*iterMerge
	freeQ    []*idMergeQueue
	evFree   [][]core.Eviction

	evictedRows int64

	flushQ  chan flushItem
	maintCh chan maintJob
	tokens  chan struct{}
	recvWG  sync.WaitGroup
	flushWG sync.WaitGroup
	maintWG sync.WaitGroup
}

// RunLRPP trains with the multi-trainer LRPP engine (§3.3 of the paper):
// cfg.NumTrainers independent trainer processes, each owning the cache
// partition of the ids hashing to it (core.OwnerOf) and reaching the
// embedding tier over its own store trs[p] (one server or an S-way
// ShardedStore — the engine cannot tell). Rows a non-owner reads
// are pushed to it as per-iteration replicas over the mesh; gradient
// updates to remote-owned rows are queued and flushed by a background
// delayed-sync goroutine — batched per owner, contributions the next
// iteration depends on flushed first, the rest one iteration later — so no
// cross-trainer synchronization sits on the forward/backward critical
// path. Each owner merges contributions in exact batch-example order and
// applies one update per (row, iteration), which keeps the run
// bit-identical to RunBaseline over the same Config: the differential
// property the tests certify for every trainer count and partitioner.
//
// Consistency keeps the paper's ℒ-window shape, enforced per partition: a
// trainer's prefetch for iteration x is issued only once its own iteration
// x−ℒ fully retired (all write-backs landed). Ownership is disjoint, so
// per-trainer windows compose into the global guarantee.
//
// mesh may be nil, which wires the trainers over an in-process mesh.
func RunLRPP(cfg Config, trs []transport.Store, mesh transport.Mesh) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.LookAhead < 1 {
		return nil, fmt.Errorf("train: LRPP engine needs LookAhead >= 1, got %d", cfg.LookAhead)
	}
	P := cfg.NumTrainers
	if len(trs) != P {
		return nil, fmt.Errorf("train: %d trainers need %d stores, got %d", P, P, len(trs))
	}
	if mesh == nil {
		mesh = transport.NewInprocMesh(P)
	}
	if mesh.Size() != P {
		return nil, fmt.Errorf("train: mesh has %d endpoints for %d trainers", mesh.Size(), P)
	}

	eng := newLRPPEngine(&cfg, mesh, collective.NewGroup(P))
	trainers := make([]*lrppTrainer, P)
	for p := 0; p < P; p++ {
		t, err := newLRPPTrainer(eng, p, trs[p], mesh.Endpoint(p))
		if err != nil {
			return nil, err
		}
		trainers[p] = t
	}

	// Oracle: one lookahead walker emits per-trainer plans in iteration
	// order.
	gen := data.NewGenerator(cfg.Spec, cfg.Seed)
	oracle := core.NewOracle(core.NewGeneratorSource(gen, cfg.BatchSize, cfg.NumBatches), cfg.LookAhead, P)
	oracle.Partitioner = cfg.Partitioner
	stats := make([]core.IterStats, 0, cfg.NumBatches)
	planChs := make([]chan *core.TrainerPlan, P)
	for p := range planChs {
		planChs[p] = make(chan *core.TrainerPlan, cfg.LookAhead)
	}
	go func() {
		defer func() {
			for _, ch := range planChs {
				close(ch)
			}
		}()
		for {
			d, ok := oracle.Next()
			if !ok {
				return
			}
			stats = append(stats, d.Stats(oracle.CacheOccupancy()))
			for p, pl := range d.SplitPlans(P) {
				planChs[p] <- pl
			}
		}
	}()

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < P; p++ {
		wg.Add(1)
		go func(t *lrppTrainer) {
			defer wg.Done()
			t.run(planChs[t.p])
		}(trainers[p])
	}
	wg.Wait()
	mesh.Quiesce()
	return eng.collectResult(trainers, stats, start)
}

// newLRPPEngine builds the per-process engine state.
func newLRPPEngine(cfg *Config, mesh transport.Mesh, coll lrppColl) *lrppEngine {
	eng := &lrppEngine{
		cfg:    cfg,
		dim:    cfg.Spec.EmbDim,
		P:      cfg.NumTrainers,
		L:      cfg.LookAhead,
		mesh:   mesh,
		coll:   coll,
		hooks:  cfg.Hooks,
		prog:   cfg.Progress,
		losses: make([]float64, cfg.NumBatches),
	}
	if !cfg.SyncEager && cfg.LookAhead > 1 {
		eng.lag = 1
	}
	return eng
}

// newLRPPTrainer builds trainer p: its model replica, optimizers, cache
// partition, and pipeline plumbing.
func newLRPPTrainer(eng *lrppEngine, p int, tr transport.Store, ep transport.Endpoint) (*lrppTrainer, error) {
	cfg := eng.cfg
	if eng.P > 64 {
		return nil, fmt.Errorf("train: LRPP engine supports at most 64 trainers (rankBits), got %d", eng.P)
	}
	mcfg := model.Config{
		NumCategorical: cfg.Spec.NumCategorical,
		NumNumeric:     cfg.Spec.NumNumeric,
		TotalRows:      cfg.Spec.TotalRows(),
		EmbDim:         cfg.Spec.EmbDim,
		Seed:           cfg.Seed,
	}
	m, err := model.New(cfg.Model, mcfg)
	if err != nil {
		return nil, err
	}
	opt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	rowOpt, err := newOptimizer(cfg.Optimizer, cfg.LR)
	if err != nil {
		return nil, err
	}
	t := &lrppTrainer{
		p: p, eng: eng, model: m, opt: opt, rowOpt: rowOpt,
		tr: tr, ep: ep,
		cache:       core.NewCache(cfg.Spec.EmbDim),
		merges:      make(map[uint64]*idMergeQueue),
		expiring:    make(map[int]int),
		evbatch:     make(map[int][]core.Eviction),
		computeDone: make(map[int]bool),
		emitted:     make(map[int]bool),
		repRows:     make(map[int]map[uint64][]float32),
		repFrom:     make(map[int]rankBits),
		arena:       transport.Rows(cfg.Spec.EmbDim),
		foldBuf:     make([]float32, cfg.Spec.EmbDim),
		gathered:    make(map[uint64][]float32),
		flushQ:      make(chan flushItem, cfg.NumBatches+1),
		maintCh:     make(chan maintJob, cfg.NumBatches+1),
		tokens:      make(chan struct{}, cfg.LookAhead),
	}
	t.cond = sync.NewCond(&t.mu)
	for i := 0; i < cfg.LookAhead; i++ {
		t.tokens <- struct{}{}
	}
	return t, nil
}

// getMerge pops a reset merge record from the free list. Caller holds t.mu.
func (t *lrppTrainer) getMerge() *iterMerge {
	if n := len(t.freeIM); n > 0 {
		im := t.freeIM[n-1]
		t.freeIM[n-1] = nil
		t.freeIM = t.freeIM[:n-1]
		return im
	}
	return &iterMerge{}
}

// putMerge recycles an applied merge record, dropping its gradient
// references so the pooled record does not pin backward-pass buffers.
// Caller holds t.mu.
func (t *lrppTrainer) putMerge(im *iterMerge) {
	clear(im.entries)
	im.entries = im.entries[:0]
	im.expect, im.expectN = 0, 0
	t.freeIM = append(t.freeIM, im)
}

// getQueue pops an empty id merge queue from the free list. Caller holds
// t.mu.
func (t *lrppTrainer) getQueue() *idMergeQueue {
	if n := len(t.freeQ); n > 0 {
		q := t.freeQ[n-1]
		t.freeQ[n-1] = nil
		t.freeQ = t.freeQ[:n-1]
		return q
	}
	return &idMergeQueue{byIter: make(map[int]*iterMerge, 2)}
}

// putQueue recycles a drained id merge queue (its byIter map is already
// empty — every applied iteration deletes its record). Caller holds t.mu.
func (t *lrppTrainer) putQueue(q *idMergeQueue) {
	q.iters = q.iters[:0]
	t.freeQ = append(t.freeQ, q)
}

// collectResult assembles the run summary from the trainers this process
// hosted (all of them in single-process mode, exactly one in worker mode)
// plus the oracle stats if the oracle ran here.
func (eng *lrppEngine) collectResult(trainers []*lrppTrainer, stats []core.IterStats, start time.Time) (*Result, error) {
	cfg := eng.cfg
	res := &Result{Engine: "lrpp", Iters: cfg.NumBatches}
	var lossSum float64
	for i, l := range eng.losses {
		if i == 0 {
			res.FirstLoss = float32(l)
		}
		res.LastLoss = float32(l)
		lossSum += l
	}
	res.AvgLoss = lossSum / float64(cfg.NumBatches)
	for _, st := range stats {
		res.UniqueIDs += int64(st.UniqueIDs)
		res.CachedHits += int64(st.CachedHits)
		res.Prefetched += int64(st.Prefetched)
	}
	for _, t := range trainers {
		if n := t.cache.Len(); n != 0 {
			return nil, fmt.Errorf("train: trainer %d still caches %d rows after the final iteration", t.p, n)
		}
		res.Evicted += t.evictedRows
		res.PeakCache += t.cache.PeakRows()
		res.Transport.Add(t.tr.Stats())
		addTierHealth(res, t.tr)
		for i, st := range t.tr.ServerStats() {
			if i == len(res.StoreServers) {
				res.StoreServers = append(res.StoreServers, transport.Stats{})
			}
			res.StoreServers[i].Add(st)
		}
	}
	res.Examples = int64(cfg.NumBatches) * int64(cfg.BatchSize)
	res.Elapsed = time.Since(start)
	res.ReplicaRows = eng.replicaRows.Load()
	res.SyncEntries = eng.syncEntries.Load()
	res.UrgentFlushes = eng.urgentFlushes.Load()
	res.DelayedFlushes = eng.delayedFlushes.Load()
	res.OverlapPrefetchTrain = eng.overlapPT.Load()
	res.OverlapMaintTrain = eng.overlapMT.Load()
	res.Mesh = eng.mesh.Stats()
	res.MeshClasses = MeshTraffic{
		ReplicaMsgs: eng.classMsgs[classReplica].Load(), ReplicaBytes: eng.classBytes[classReplica].Load(),
		SyncMsgs: eng.classMsgs[classSync].Load(), SyncBytes: eng.classBytes[classSync].Load(),
		CollMsgs: eng.classMsgs[classColl].Load(), CollBytes: eng.classBytes[classColl].Load(),
		PlanMsgs: eng.classMsgs[classPlan].Load(), PlanBytes: eng.classBytes[classPlan].Load(),
	}
	return res, nil
}

// run is one trainer process end to end: start the service goroutines,
// drive the iteration loop, then drain and tear everything down.
func (t *lrppTrainer) run(planCh <-chan *core.TrainerPlan) {
	workCh := t.startDispatcher(planCh)
	t.startReceiver()
	t.startFlusher()
	t.startMaintenance()

	for w := range workCh {
		t.iterate(w)
	}

	// Teardown: flush the delayed-sync backlog, wait for every merge and
	// eviction this partition owes (fed by the other trainers' final
	// flushes), retire the remaining iterations, then close the endpoint.
	close(t.flushQ)
	t.flushWG.Wait()
	t.mu.Lock()
	for len(t.merges) > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
	close(t.maintCh)
	t.maintWG.Wait()
	t.ep.Close()
	t.recvWG.Wait()
}

// startDispatcher runs the per-trainer prefetch front end: it admits one
// iteration per lookahead token (the ℒ-deep consistency window over this
// partition) and fetches its owned misses concurrently with earlier
// iterations' compute, delivering rows through a future.
func (t *lrppTrainer) startDispatcher(planCh <-chan *core.TrainerPlan) <-chan *lrppWork {
	eng := t.eng
	workCh := make(chan *lrppWork, eng.L)
	go func() {
		defer close(workCh)
		for pl := range planCh {
			<-t.tokens
			w := &lrppWork{plan: pl, rows: make(chan [][]float32, 1)}
			workCh <- w
			go func(pl *core.TrainerPlan, w *lrppWork) {
				var rows [][]float32
				if len(pl.Prefetch) > 0 {
					if eng.hooks != nil && eng.hooks.OnPrefetch != nil {
						eng.hooks.OnPrefetch(t.p, pl.Dec.Iter, pl.Prefetch)
					}
					eng.activePrefetch.Add(1)
					if eng.activeTrain.Load() > 0 {
						eng.overlapPT.Add(1)
					}
					rows = t.tr.Fetch(pl.Prefetch)
					eng.activePrefetch.Add(-1)
				}
				w.rows <- rows
			}(pl, w)
		}
	}()
	return workCh
}

// startReceiver drains the mesh endpoint: replica pushes feed the per-
// iteration replica box, sync flushes feed the gradient merges. Both are
// keyed by (id, iteration), so arbitrary mesh reordering is harmless.
func (t *lrppTrainer) startReceiver() {
	t.recvWG.Add(1)
	go func() {
		defer t.recvWG.Done()
		for {
			msg, ok := t.ep.Recv()
			if !ok {
				return
			}
			switch pl := msg.Payload.(type) {
			case transport.ReplicaMsg:
				// The push transfers ownership of the rows map and its row
				// buffers (pooled at the sender in-process, decoded into the
				// same pools by the TCP codec): adopt the first sender's map
				// wholesale, merge later senders' rows into it and recycle
				// their emptied maps. iterate's step 5 returns everything
				// once the rows are consumed.
				t.mu.Lock()
				if have := t.repRows[pl.Iter]; have == nil {
					t.repRows[pl.Iter] = pl.Rows
				} else {
					for id, row := range pl.Rows {
						have[id] = row
					}
					transport.PutRowMap(pl.Rows)
				}
				rb := t.repFrom[pl.Iter]
				rb.set(msg.From)
				t.repFrom[pl.Iter] = rb
				t.mu.Unlock()
				t.cond.Broadcast()
			case transport.SyncBatchMsg:
				// One coalesced frame, several iterations' flushes: deposits
				// are keyed by (id, iteration), so each table unpacks on its
				// own.
				t.mu.Lock()
				for _, f := range pl.Flushes {
					for id, es := range f.Entries {
						t.depositLocked(id, f.Iter, msg.From, es)
					}
				}
				t.mu.Unlock()
				t.cond.Broadcast()
			case transport.PlanMsg:
				// Worker mode only: the rank-0 process streams oracle plans.
				if t.planBox == nil {
					panic(fmt.Sprintf("train: trainer %d received a plan outside worker mode", t.p))
				}
				t.planBox.put(pl.Plan)
			case transport.FusedCollMsg:
				// Worker mode only: collective contributions and results.
				if t.mcoll == nil {
					panic(fmt.Sprintf("train: trainer %d received a collective message outside worker mode", t.p))
				}
				t.mcoll.deliver(msg.From, pl)
			default:
				panic(fmt.Sprintf("train: trainer %d received unknown mesh payload %T", t.p, msg.Payload))
			}
		}
	}()
}

// startFlusher runs the delayed-sync sender: per iteration it flushes
// critical contributions (rows the next iteration reads) immediately and
// holds the rest back lag iterations. Everything one flush pass owes one
// owner — typically iteration x's urgent contributions plus iteration
// x−lag's deferred ones — is coalesced into a single SyncBatchMsg frame
// with a per-iteration entry table, instead of one frame per (iteration,
// criticality), so the trainer loop never blocks on cross-trainer traffic
// and the fabric sees one frame per owner per pass.
func (t *lrppTrainer) startFlusher() {
	eng := t.eng
	t.flushWG.Add(1)
	go func() {
		defer t.flushWG.Done()
		// With -sync-compress-grad the flusher is the quantization point:
		// every outgoing contribution is rounded through float16 here, after
		// injecting the row's carried rounding error (error feedback), so
		// all fabrics ship the identical quantized values and the wire
		// encoding (2 bytes/element on TCP) is lossless with respect to them.
		var ef *efState
		if eng.cfg.SyncCompressGrad {
			ef = newEFState(eng.dim)
		}
		// pass accumulates one flush pass's per-owner iteration tables; the
		// urgent/delayed counters keep their historical granularity (one
		// per non-empty per-owner table) even though the frames coalesce.
		pass := make(map[int][]transport.SyncMsg)
		collect := func(buckets map[int]map[uint64][]contribEntry, iter int, urgent bool) {
			for o, entries := range buckets {
				if len(entries) == 0 {
					continue
				}
				if ef != nil {
					for id, es := range entries {
						ef.compress(o, id, es)
					}
				}
				pass[o] = append(pass[o], transport.SyncMsg{Iter: iter, F16: ef != nil, Entries: entries})
				if urgent {
					eng.urgentFlushes.Add(1)
				} else {
					eng.delayedFlushes.Add(1)
				}
			}
		}
		flush := func() {
			owners := make([]int, 0, len(pass))
			for o := range pass {
				owners = append(owners, o)
			}
			slices.Sort(owners)
			for _, o := range owners {
				flushes := pass[o]
				b := syncBatchBytes(flushes, eng.dim)
				t.ep.Send(o, b, transport.SyncBatchMsg{Flushes: flushes})
				eng.countSend(classSync, b)
				delete(pass, o)
			}
		}
		var backlog []flushItem
		for it := range t.flushQ {
			collect(it.urgent, it.iter, true)
			backlog = append(backlog, it)
			for len(backlog) > 0 && backlog[0].iter <= it.iter-eng.lag {
				collect(backlog[0].lazy, backlog[0].iter, false)
				backlog = backlog[1:]
			}
			flush()
		}
		for _, it := range backlog {
			collect(it.lazy, it.iter, false)
		}
		flush()
	}()
}

// startMaintenance runs the background write-back stage. Eviction batches
// may complete out of iteration order (a delayed contribution can finish a
// newer iteration's last merge first); retirement is re-sequenced so
// lookahead tokens release strictly in order — the ℒ-window bookkeeping
// stays exact.
func (t *lrppTrainer) startMaintenance() {
	eng := t.eng
	t.maintWG.Add(1)
	go func() {
		defer t.maintWG.Done()
		parked := make(map[int][]core.Eviction)
		done := make(map[int]bool)
		next := 0
		// Write-back scratch reused across batches: callees treat the id and
		// row slices as call-scoped (transports copy or encode, the hook only
		// iterates), so one pair serves the whole run.
		var (
			ids  []uint64
			rows [][]float32
		)
		for job := range t.maintCh {
			parked[job.iter] = job.evictions
			done[job.iter] = true
			for done[next] {
				if evs := parked[next]; len(evs) > 0 {
					eng.activeMaint.Add(1)
					if eng.activeTrain.Load() > 0 {
						eng.overlapMT.Add(1)
					}
					ids, rows = ids[:0], rows[:0]
					for _, ev := range evs {
						ids = append(ids, ev.ID)
						rows = append(rows, ev.Row)
					}
					t.tr.Write(ids, rows)
					eng.activeMaint.Add(-1)
					// Every evicted row was fetched through the arena-backed
					// transports and adopted by the cache; the durable
					// write-back is its single recycle point.
					t.arena.PutN(rows)
					if eng.hooks != nil && eng.hooks.OnWriteBack != nil {
						eng.hooks.OnWriteBack(t.p, next, ids)
					}
					t.mu.Lock()
					clear(evs)
					t.evFree = append(t.evFree, evs[:0])
					t.mu.Unlock()
				}
				if eng.hooks != nil && eng.hooks.OnRetire != nil {
					eng.hooks.OnRetire(t.p, next)
				}
				if eng.prog != nil {
					eng.prog.noteRetire(t.p, next)
				}
				t.tokens <- struct{}{}
				delete(parked, next)
				delete(done, next)
				next++
			}
		}
	}()
}

// iterate is one iteration of the trainer loop.
func (t *lrppTrainer) iterate(w *lrppWork) {
	eng := t.eng
	pl := w.plan
	d := pl.Dec
	x := d.Iter

	// 1. Register this iteration's merge obligations and eviction counts
	// before joining any collective: contributions for iteration x can only
	// be computed after the iteration-x all-reduce, so registration always
	// precedes the first deposit.
	t.mu.Lock()
	for id, users := range pl.Users {
		q := t.merges[id]
		if q == nil {
			q = t.getQueue()
			t.merges[id] = q
		}
		q.iters = append(q.iters, x)
		im := t.getMerge()
		for _, u := range users {
			if !im.expect.has(u) {
				im.expect.set(u)
				im.expectN++
			}
		}
		q.byIter[x] = im
	}
	t.expiring[x] = len(pl.Expiring)
	t.mu.Unlock()

	// 2. Insert the prefetched owned rows and refresh TTLs. The cache adopts
	// the row buffers by reference (they return to the arena at write-back);
	// the fetch's header slice is dead after the loop, so recycle it.
	rows := <-w.rows
	t.mu.Lock()
	for i, id := range pl.Prefetch {
		if eng.hooks != nil && eng.hooks.OnInsert != nil {
			eng.hooks.OnInsert(t.p, x, id)
		}
		t.cache.Insert(id, rows[i], pl.OwnedTTL[id])
	}
	if rows != nil {
		transport.PutRowSlice(rows)
	}
	for id, ttl := range pl.OwnedTTL {
		t.cache.UpdateTTL(id, ttl)
	}

	// 3. Wait until every owned row used this iteration has absorbed all
	// merges from earlier iterations (the per-row sync horizon).
	for {
		ready := true
		for id := range pl.Users {
			if q := t.merges[id]; len(q.iters) > 0 && q.iters[0] < x {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		t.cond.Wait()
	}

	// 4. Snapshot and push replicas to the non-owners reading our rows.
	// With SyncCompress the snapshot is rounded through float16 *here*, at
	// the sender — every fabric then carries the identical quantized
	// values, and the wire encoding (2 bytes/element on TCP) is lossless
	// with respect to them.
	quant := eng.cfg.SyncCompress
	type out struct {
		to    int
		bytes int64
		nrows int64
		msg   transport.ReplicaMsg
	}
	var outs []out
	for q, ids := range pl.ReplicaOut {
		// Snapshot into pooled buffers: the map and its rows transfer to the
		// receiver with the push (in-process meshes deliver by reference),
		// which recycles them after consuming the iteration — so nothing
		// here, including the counters below, may touch the message after
		// Send.
		snap := transport.GetRowMap()
		for _, id := range ids {
			e, ok := t.cache.Peek(id)
			if !ok {
				panic(fmt.Sprintf("train: trainer %d iter %d: replica id %d missing from partition", t.p, x, id))
			}
			row := t.arena.Get()
			copy(row, e.Row)
			if quant {
				transport.QuantizeF16(row)
			}
			snap[id] = row
		}
		outs = append(outs, out{to: q, bytes: replicaMsgBytes(snap, eng.dim, quant), nrows: int64(len(snap)),
			msg: transport.ReplicaMsg{Iter: x, F16: quant, Rows: snap}})
	}
	t.mu.Unlock()
	for _, o := range outs {
		t.ep.Send(o.to, o.bytes, o.msg)
		eng.countSend(classReplica, o.bytes)
		eng.replicaRows.Add(o.nrows)
	}

	// 5. Wait for the replicas we need, then gather this trainer's rows:
	// owned ids from the partition, remote ids from the replica box.
	t.mu.Lock()
	for {
		got := t.repFrom[x]
		ready := true
		for _, o := range pl.ReplicaFrom {
			if !got.has(o) {
				ready = false
				break
			}
		}
		if ready {
			break
		}
		t.cond.Wait()
	}
	replicas := t.repRows[x]
	delete(t.repRows, x)
	delete(t.repFrom, x)
	// gathered is the trainer loop's private reusable scratch; its entries
	// alias cache rows and replica rows only until extractLocal copies them.
	gathered := t.gathered
	clear(gathered)
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] != t.p {
			continue
		}
		for _, id := range ex.Cat {
			if _, ok := gathered[id]; ok {
				continue
			}
			if _, remote := pl.Remote[id]; remote {
				row, ok := replicas[id]
				if !ok {
					panic(fmt.Sprintf("train: trainer %d iter %d: replica of id %d never arrived", t.p, x, id))
				}
				gathered[id] = row
			} else {
				e, ok := t.cache.Get(id)
				if !ok {
					panic(fmt.Sprintf("train: trainer %d iter %d: owned id %d missing from partition (oracle consistency violated)", t.p, x, id))
				}
				gathered[id] = e.Row
			}
		}
	}
	t.mu.Unlock()

	// 6. Forward/backward on this trainer's examples, then ONE fused
	// collective round: every dense-parameter gradient segment plus the
	// loss term crosses the trainer group together (a single frame per hop
	// on mesh fabrics, instead of one per parameter), folded in rank order
	// from zero — the identical call sequence and summation on every
	// trainer.
	ls := extractLocal(d.Batch, d.Assign, t.p, eng.cfg.Spec.NumCategorical, eng.cfg.Spec.NumNumeric, eng.dim, gathered)
	// extractLocal copied every gathered row into the local slice, so the
	// replica snapshot this trainer adopted from the pushes is dead: return
	// the rows and the map to the pools the senders drew them from. A row
	// of any other width came off a corrupt frame and is left to the
	// collector.
	if replicas != nil {
		for _, row := range replicas {
			if len(row) == t.arena.Dim() {
				t.arena.Put(row)
			}
		}
		transport.PutRowMap(replicas)
	}
	eng.activeTrain.Add(1)
	loss, dEmb := computeLocal(t.model, ls, &t.dlogits)
	params := t.model.Params()
	segs := make([][]float32, len(params))
	for i, p := range params {
		segs[i] = p.Grad
	}
	lossVec := []float64{loss}
	eng.coll.FusedAllReduce(t.p, segs, lossVec)
	t.opt.Step(params)
	eng.activeTrain.Add(-1)
	// All ranks hold the identical reduced loss; in single-process mode the
	// losses slice is shared so only trainer 0 writes it, in worker mode
	// every process records its own copy.
	if t.p == 0 || eng.worker {
		eng.losses[x] = lossVec[0]
	}

	// 7. Route per-example gradient contributions: owned rows merge
	// locally (ids used only here are the LRPP fast path — no mesh traffic
	// at all); remote-owned rows queue for the delayed-sync flusher.
	owned := make(map[uint64][]contribEntry)
	urgent := make(map[int]map[uint64][]contribEntry)
	lazy := make(map[int]map[uint64][]contribEntry)
	nEntries := 0
	for k, i := range ls.mine {
		var row []float32
		if dEmb != nil {
			row = dEmb.Data[k*dEmb.Cols : (k+1)*dEmb.Cols]
		}
		// Entries must own their gradient memory: models reuse the dEmb
		// buffer across iterations, and a deferred merge (or delayed flush)
		// outlives this backward pass.
		grads := append([]float32(nil), row...)
		for c, id := range d.Batch.Examples[i].Cat {
			e := contribEntry{Example: i, Grad: grads[c*eng.dim : (c+1)*eng.dim]}
			nEntries++
			if owner, remote := pl.Remote[id]; remote {
				bucket := lazy
				if d.NeededNext[id] {
					bucket = urgent
				}
				if bucket[owner] == nil {
					bucket[owner] = make(map[uint64][]contribEntry)
				}
				bucket[owner][id] = append(bucket[owner][id], e)
			} else {
				owned[id] = append(owned[id], e)
			}
		}
	}
	eng.syncEntries.Add(int64(nEntries))
	if eng.prog != nil {
		eng.prog.noteExamples(len(ls.mine))
	}
	t.mu.Lock()
	for id, es := range owned {
		t.depositLocked(id, x, t.p, es)
	}
	t.computeDone[x] = true
	t.maybeEmitLocked(x)
	t.mu.Unlock()
	t.cond.Broadcast()
	t.flushQ <- flushItem{iter: x, urgent: urgent, lazy: lazy}
}

// depositLocked adds one contributor's entries for (id, iter) and applies
// every merge that became ready. Caller holds t.mu.
func (t *lrppTrainer) depositLocked(id uint64, iter, from int, entries []contribEntry) {
	q := t.merges[id]
	if q == nil {
		panic(fmt.Sprintf("train: trainer %d: contribution for unregistered id %d iter %d", t.p, id, iter))
	}
	im := q.byIter[iter]
	if im == nil {
		panic(fmt.Sprintf("train: trainer %d: contribution for unregistered iter %d of id %d", t.p, iter, id))
	}
	im.entries = append(im.entries, entries...)
	if im.expect.clearBit(from) {
		im.expectN--
	}
	t.applyReadyLocked(id)
}

// applyReadyLocked applies id's head-of-queue merges while they are
// complete: fold the contributions in batch-example order, update the row
// once, and evict + queue the write-back when the iteration was the row's
// last use. Caller holds t.mu.
func (t *lrppTrainer) applyReadyLocked(id uint64) {
	eng := t.eng
	q := t.merges[id]
	applied := false
	defer func() {
		if len(q.iters) == 0 {
			delete(t.merges, id)
			t.putQueue(q)
			applied = true
		}
		if applied {
			// The merge head moved (or the id fully drained): wake the
			// trainer loop's merge wait and the teardown drain.
			t.cond.Broadcast()
		}
	}()
	for len(q.iters) > 0 {
		iter := q.iters[0]
		im := q.byIter[iter]
		if im == nil || im.expectN > 0 {
			return
		}
		applied = true
		// Stable insertion sort by example index: contributions per
		// (id, iteration) are few, and sort.SliceStable would allocate its
		// closure on every merge.
		es := im.entries
		for i := 1; i < len(es); i++ {
			for j := i; j > 0 && es[j].Example < es[j-1].Example; j-- {
				es[j], es[j-1] = es[j-1], es[j]
			}
		}
		// Fold into the trainer's persistent buffer (mu is held): zeroing
		// then adding keeps the per-element summation order — and therefore
		// the bits — of a fresh accumulator.
		g := t.foldBuf
		clear(g)
		for _, en := range es {
			collective.AddF32(g, en.Grad)
		}
		e, ok := t.cache.Peek(id)
		if !ok {
			panic(fmt.Sprintf("train: trainer %d iter %d: sync for id %d landed after eviction", t.p, iter, id))
		}
		t.rowOpt.UpdateRow(id, e.Row, g)
		e.Dirty = true
		if eng.hooks != nil && eng.hooks.OnSyncApply != nil {
			eng.hooks.OnSyncApply(t.p, iter, id)
		}
		q.iters = q.iters[1:]
		delete(q.byIter, iter)
		t.putMerge(im)
		if e.TTL == iter {
			ev, dirty := t.cache.Remove(id)
			if !dirty {
				panic(fmt.Sprintf("train: trainer %d iter %d: expiring id %d not dirty after update", t.p, iter, id))
			}
			if eng.hooks != nil && eng.hooks.OnEvict != nil {
				eng.hooks.OnEvict(t.p, iter, id)
			}
			evs := t.evbatch[iter]
			if evs == nil {
				if n := len(t.evFree); n > 0 {
					evs = t.evFree[n-1][:0]
					t.evFree[n-1] = nil
					t.evFree = t.evFree[:n-1]
				}
			}
			t.evbatch[iter] = append(evs, ev)
			t.evictedRows++
			t.expiring[iter]--
			t.maybeEmitLocked(iter)
		}
	}
}

// maybeEmitLocked hands iteration iter's eviction batch to maintenance
// once the trainer loop has passed it and its last merge has evicted.
// Caller holds t.mu; maintCh is sized for the whole run so the send never
// blocks.
func (t *lrppTrainer) maybeEmitLocked(iter int) {
	if !t.computeDone[iter] || t.expiring[iter] != 0 || t.emitted[iter] {
		return
	}
	t.emitted[iter] = true
	evs := t.evbatch[iter]
	delete(t.evbatch, iter)
	delete(t.expiring, iter)
	delete(t.computeDone, iter)
	slices.SortFunc(evs, func(a, b core.Eviction) int {
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	t.maintCh <- maintJob{iter: iter, evictions: evs}
}
