package main

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/embed"
	"bagpipe/internal/serve"
	"bagpipe/internal/train"
	"bagpipe/internal/transport"
)

// workload is one benchmark input set. Every workload trains with P=2
// trainers, matching the two cores the benchmark is sized for.
type workload struct {
	name string
	// scale divides the criteo-kaggle shape: 200 gives ~169k rows, 20000
	// ~1.7k rows.
	scale     int64
	servers   int
	replicate int
	// fabric is "sim" (simulated links with the latencies below), "tcp"
	// (real loopback sockets, one process) or "inproc".
	fabric string
	// serveQPS is the rate at which the benchmark serves queries from the
	// tier while training writes it: heavy on serve-mixed, a light probe
	// elsewhere.
	serveQPS float64
	// serveLimit is the stated latency limit a served request must meet.
	serveLimit time.Duration
	// nominalExS is the LRPP rate used to turn --seconds into a fixed
	// batch count, so one seed always trains the same batches.
	nominalExS float64
}

const (
	trainers  = 2
	batchSize = 256
	lookAhead = 32
	shards    = 4
	modelName = "wd"
	// reps is how many times a run sets up and trains the identical
	// configuration with LRPP. Throughput is pooled over the reps' steady
	// states; the other figures are medians over the reps. A no-cache
	// baseline run, serving at the same rate, precedes each rep, so the two
	// engines are measured interleaved under the same host conditions.
	reps = 5

	tierLatency   = 10 * time.Millisecond
	tierBandwidth = 2e6
	meshLatency   = time.Millisecond
	meshBandwidth = 20e6
)

// The three workloads. remote-tier is the paper's regime: the no-cache
// baseline pays a slow tier on its critical path and LRPP hides it.
// loopback-tcp is the compute-bound foil and the only path through the
// wire and the mesh collective: the tier does little work there. serve-mixed
// is the only workload with replication and heavy serving: reads at a high
// rate share a replicated tier with training writes. Every workload serves
// while it trains, so every workload reports serving latency; outside
// serve-mixed the rate is a light probe.
var workloads = []*workload{
	{name: "remote-tier", scale: 200, servers: 2, replicate: 1, fabric: "sim",
		serveQPS: 50, serveLimit: 100 * time.Millisecond, nominalExS: 3300},
	{name: "loopback-tcp", scale: 20000, servers: 1, replicate: 1, fabric: "tcp",
		serveQPS: 200, serveLimit: 100 * time.Millisecond, nominalExS: 5500},
	{name: "serve-mixed", scale: 200, servers: 2, replicate: 2, fabric: "inproc",
		serveQPS: 500, serveLimit: 50 * time.Millisecond, nominalExS: 5000},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func (w *workload) spec() *data.Spec { return data.CriteoKaggle().Scaled(w.scale) }

// expect is about how long one LRPP rep of cfg trains.
func (w *workload) expect(cfg train.Config) time.Duration {
	return time.Duration(float64(cfg.NumBatches*cfg.BatchSize) / w.nominalExS * float64(time.Second))
}

// batches sizes one rep so the reps together train for about seconds.
func (w *workload) batches(seconds float64) int {
	n := int(math.Round(seconds * w.nominalExS / reps / batchSize))
	return max(n, 12)
}

func (w *workload) config(seed uint64, seconds float64) train.Config {
	return train.Config{
		Spec:        w.spec(),
		Seed:        seed,
		Model:       modelName,
		Optimizer:   "sgd",
		LR:          0.05,
		BatchSize:   batchSize,
		NumBatches:  w.batches(seconds),
		LookAhead:   lookAhead,
		NumTrainers: trainers,
	}
}

// tier is one freshly initialized embedding tier and everything a rep
// connects to it.
type tier struct {
	w     *workload
	srvs  []*embed.Server
	lis   net.Listener
	done  chan error
	links []*transport.TCPLink
}

func newTier(w *workload, cfg train.Config) (*tier, error) {
	t := &tier{w: w}
	for i := 0; i < w.servers; i++ {
		t.srvs = append(t.srvs, embed.NewServer(shards, cfg.Spec.EmbDim, cfg.Seed^0xE, 0.05))
	}
	if w.fabric == "tcp" {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		t.lis, t.done = lis, make(chan error, 1)
		go func() { t.done <- transport.ServeEmbed(lis, t.srvs[0]) }()
	}
	return t, nil
}

// client returns a new tier client: a TCP link to the one server, or a
// sharded store with one link per server over the workload's fabric.
func (t *tier) client() (transport.Store, error) {
	switch t.w.fabric {
	case "tcp":
		link, err := transport.DialTCPLink(t.lis.Addr().String(), 5*time.Second)
		if err != nil {
			return nil, err
		}
		t.links = append(t.links, link)
		return link, nil
	case "sim", "inproc":
		children := make([]transport.Store, len(t.srvs))
		for i, srv := range t.srvs {
			if t.w.fabric == "sim" {
				children[i] = transport.NewSimNet(srv, tierLatency, tierBandwidth)
			} else {
				children[i] = transport.NewInProcess(srv)
			}
		}
		return transport.NewTier(children, transport.TierOptions{Replicate: t.w.replicate}), nil
	}
	return nil, fmt.Errorf("unknown fabric %q", t.w.fabric)
}

// simLinks returns the model of a simulated tier's link delay, or nil when the
// links are not simulated.
func (t *tier) simLinks() *simLinks {
	if t.w.fabric != "sim" {
		return nil
	}
	return &simLinks{servers: t.w.servers, replicate: t.w.replicate, dim: t.srvs[0].Dim,
		latency: tierLatency, bandwidth: tierBandwidth}
}

// close stops the server process loop, if any, and waits for it.
func (t *tier) close() error {
	if t.lis == nil {
		return nil
	}
	if len(t.links) == 0 {
		t.lis.Close()
		<-t.done
		return nil
	}
	t.links[0].Shutdown()
	for _, l := range t.links {
		l.Close()
	}
	return <-t.done
}

// health sums the tier-health counters of raw (undecorated) clients.
func health(stores []transport.Store) transport.TierHealth {
	var h transport.TierHealth
	for _, s := range stores {
		if sh, ok := s.(*transport.ShardedStore); ok {
			th := sh.TierHealth()
			h.Failovers += th.Failovers
			h.Retries += th.Retries
		}
	}
	return h
}

// repOut is what one rep measured.
type repOut struct {
	res       *train.Result
	setup     time.Duration
	steadyEx  int64         // examples completed in the steady state
	steadyDur time.Duration // time they took
	fp        uint64
	memPeak   uint64
	mem       memDelta // across training alone
	health    transport.TierHealth
	simDelay  time.Duration
	perServer []transport.Stats
	stores    []*timedStore
	mesh      *timedMesh
	meshRaw   transport.Mesh
	load      *loadResult
	fe        *serve.Frontend
	reads     *timedReadStore
}

// rig is everything one rep trains and serves over: a fresh tier, one
// client per trainer (raw, and as handed to the engine), the trainer mesh
// and the serving front end.
type rig struct {
	tier    *tier
	raw     []transport.Store
	stores  []transport.Store
	mesh    transport.Mesh
	loop    *transport.LoopbackTCPMesh
	fe      *serve.Frontend
	reads   *timedReadStore
	timedSt []*timedStore
	timedM  *timedMesh
}

func newRig(w *workload, cfg train.Config, tr *tracer, prog *train.Progress) (_ *rig, err error) {
	r := &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.tier, err = newTier(w, cfg); err != nil {
		return nil, err
	}
	for p := 0; p < cfg.NumTrainers; p++ {
		st, err := r.tier.client()
		if err != nil {
			return nil, err
		}
		r.raw = append(r.raw, st)
		if tr != nil {
			ts := &timedStore{Store: st, prefix: "tier", group: fmt.Sprintf("t%d", p), tr: tr,
				links: r.tier.simLinks(), fetch: &callStats{}, write: &callStats{}}
			r.timedSt = append(r.timedSt, ts)
			st = ts
		}
		r.stores = append(r.stores, st)
	}
	switch w.fabric {
	case "sim":
		r.mesh = transport.NewSimMesh(cfg.NumTrainers, meshLatency, meshBandwidth)
	case "tcp":
		if r.loop, err = transport.NewLoopbackTCPMesh(cfg.NumTrainers); err != nil {
			return nil, err
		}
		r.mesh = r.loop
	default:
		r.mesh = transport.NewInprocMesh(cfg.NumTrainers)
	}
	if r.fe, r.reads, err = newFrontend(w, r.tier, cfg, prog, tr); err != nil {
		return nil, err
	}
	return r, nil
}

// close shuts the TCP mesh and the tier down, whichever exist.
func (r *rig) close() error {
	if r.loop != nil {
		r.loop.Shutdown()
	}
	if r.tier == nil {
		return nil
	}
	return r.tier.close()
}

// runRep sets up a fresh tier and trains cfg on it once with the LRPP
// engine while serving from it, sampling train.Progress from one goroutine
// for the time to the first completed example and the steady-state rate. A
// non-nil tr decorates the tier clients, the mesh and the read path.
func runRep(w *workload, cfg train.Config, tr *tracer) (*repOut, error) {
	runtime.GC()
	t0 := time.Now()
	prog := train.NewProgress(cfg.NumTrainers)
	cfg.Progress = prog
	samp := startSampler(prog.Examples, t0)
	defer samp.stop()
	rg, err := newRig(w, cfg, tr, prog)
	if err != nil {
		return nil, err
	}
	out := &repOut{stores: rg.timedSt, meshRaw: rg.mesh, fe: rg.fe, reads: rg.reads}
	mesh := rg.mesh
	if tr != nil {
		out.mesh = &timedMesh{Mesh: mesh, tr: tr}
		mesh = out.mesh
	}

	var reqs *requestSlots
	if tr != nil {
		reqs = newRequestSlots()
		rg.reads.reqs = reqs
	}
	load := startServing(rg.fe, cfg, w.serveQPS, w.expect(cfg), tr, reqs)
	m0 := readMem()
	res, trainErr := trainLRPP(cfg, rg.stores, mesh, rg.loop)
	out.mem = diffMem(m0, readMem())
	out.load = load.finish()
	samp.stop()
	if trainErr == nil {
		out.fp = rg.raw[0].Fingerprint()
		out.health = health(rg.raw)
		for _, s := range rg.raw {
			out.simDelay += s.Stats().SimulatedDelay
			for i, ss := range s.ServerStats() {
				if i == len(out.perServer) {
					out.perServer = append(out.perServer, transport.Stats{})
				}
				out.perServer[i].Add(ss)
			}
		}
	}
	closeErr := rg.close()
	switch {
	case trainErr != nil:
		return nil, trainErr
	case closeErr != nil:
		return nil, closeErr
	}
	out.res = res
	total := int64(cfg.NumBatches) * int64(cfg.BatchSize)
	if out.setup, out.steadyEx, out.steadyDur, err = samp.rates(total); err != nil {
		return nil, err
	}
	if first, ok := samp.crossing(1); ok {
		tr.record(0, 0, "rep", "rep.setup", t0, t0.Add(samp.ts[first]))
	}
	out.memPeak = samp.memPeak
	return out, nil
}

// exS is the rep's steady-state rate.
func (o *repOut) exS() float64 { return float64(o.steadyEx) / o.steadyDur.Seconds() }

// trainLRPP runs the engine: in one call for the in-process and simulated
// fabrics, or as one worker per rank over the loopback TCP mesh.
func trainLRPP(cfg train.Config, stores []transport.Store, mesh transport.Mesh, loop *transport.LoopbackTCPMesh) (*train.Result, error) {
	if loop == nil {
		return train.RunLRPP(cfg, stores, mesh)
	}
	results := make([]*train.Result, cfg.NumTrainers)
	errs := make([]error, cfg.NumTrainers)
	var wg sync.WaitGroup
	for r := range results {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = train.RunLRPPWorker(cfg, r, stores[r], mesh)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return mergeWorkers(results), nil
}

// mergeWorkers folds per-rank worker results into one: oracle-derived
// counters live on rank 0 only, per-trainer counters add, and the loss is
// the same on every rank because it crosses the collective.
func mergeWorkers(rs []*train.Result) *train.Result {
	m := *rs[0]
	for _, r := range rs[1:] {
		m.UniqueIDs += r.UniqueIDs
		m.CachedHits += r.CachedHits
		m.Prefetched += r.Prefetched
		m.Evicted += r.Evicted
		m.PeakCache += r.PeakCache
		m.ReplicaRows += r.ReplicaRows
		m.SyncEntries += r.SyncEntries
		m.UrgentFlushes += r.UrgentFlushes
		m.DelayedFlushes += r.DelayedFlushes
		m.OverlapPrefetchTrain += r.OverlapPrefetchTrain
		m.OverlapMaintTrain += r.OverlapMaintTrain
		m.Transport.Add(r.Transport)
		m.MeshClasses.ReplicaMsgs += r.MeshClasses.ReplicaMsgs
		m.MeshClasses.ReplicaBytes += r.MeshClasses.ReplicaBytes
		m.MeshClasses.SyncMsgs += r.MeshClasses.SyncMsgs
		m.MeshClasses.SyncBytes += r.MeshClasses.SyncBytes
		m.MeshClasses.CollMsgs += r.MeshClasses.CollMsgs
		m.MeshClasses.CollBytes += r.MeshClasses.CollBytes
		m.MeshClasses.PlanMsgs += r.MeshClasses.PlanMsgs
		m.MeshClasses.PlanBytes += r.MeshClasses.PlanBytes
		if r.Elapsed > m.Elapsed {
			m.Elapsed = r.Elapsed
		}
	}
	return &m
}

// newFrontend builds the serving front end over its own client of the tier,
// with epoch as its staleness clock.
func newFrontend(w *workload, t *tier, cfg train.Config, epoch serve.EpochSource, tr *tracer) (*serve.Frontend, *timedReadStore, error) {
	st, err := t.client()
	if err != nil {
		return nil, nil, err
	}
	var rs transport.ReadStore = transport.AsReadStore(st)
	var reads *timedReadStore
	if tr != nil {
		reads = &timedReadStore{inner: rs, tr: tr}
		rs = reads
	}
	fe, err := serve.New(serve.Config{
		Store:   rs,
		Spec:    cfg.Spec,
		Model:   cfg.Model,
		Seed:    cfg.Seed,
		Epoch:   epoch,
		Clients: runtime.GOMAXPROCS(0),
		Servers: w.servers,
	})
	return fe, reads, err
}

// baselineOut is one no-cache baseline run.
type baselineOut struct {
	res       *train.Result
	fp        uint64
	steadyEx  int64         // examples completed in the steady state
	steadyDur time.Duration // time they took
	store     *timedStore
	load      *loadResult
	fe        *serve.Frontend
}

func (b *baselineOut) exS() float64 { return float64(b.steadyEx) / b.steadyDur.Seconds() }

// countingStore counts the examples a baseline run has completed, the
// baseline's counterpart of train.Progress: the baseline engine writes each
// batch back once, at the end of its iteration.
type countingStore struct {
	transport.Store
	batch int64
	ex    atomic.Int64
}

func (s *countingStore) Write(ids []uint64, rows [][]float32) {
	s.Store.Write(ids, rows)
	s.ex.Add(s.batch)
}

// baselineEpoch is the serving front end's staleness clock during a
// baseline run, which has no write-back epochs.
const baselineEpoch = 100 * time.Millisecond

// runBaseline trains cfg with the no-cache baseline engine on a fresh tier
// of the same workload, serving from it at the workload's rate as the LRPP
// reps do, and times the same steady state: the paper's comparison and the
// reference every LRPP rep's final tier state must equal.
func runBaseline(w *workload, cfg train.Config, tr *tracer) (_ *baselineOut, err error) {
	runtime.GC()
	t, err := newTier(w, cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := t.close(); err == nil && cerr != nil {
			err = cerr
		}
	}()
	raw, err := t.client()
	if err != nil {
		return nil, err
	}
	out := &baselineOut{}
	st := raw
	if tr != nil {
		out.store = &timedStore{Store: raw, prefix: "baseline.tier", group: "baseline", tr: tr,
			links: t.simLinks(), fetch: &callStats{}, write: &callStats{}}
		st = out.store
	}
	counted := &countingStore{Store: st, batch: int64(cfg.BatchSize)}
	if out.fe, _, err = newFrontend(w, t, cfg, serve.NewTickerEpoch(baselineEpoch), nil); err != nil {
		return nil, err
	}
	load := startServing(out.fe, cfg, w.serveQPS, 2*w.expect(cfg), nil, nil)
	samp := startSampler(counted.ex.Load, time.Now())
	res, err := train.RunBaseline(cfg, counted)
	samp.stop()
	out.load = load.finish()
	if err != nil {
		return nil, err
	}
	out.res, out.fp = res, raw.Fingerprint()
	total := int64(cfg.NumBatches) * int64(cfg.BatchSize)
	if _, out.steadyEx, out.steadyDur, err = samp.rates(total); err != nil {
		return nil, err
	}
	return out, nil
}
