package main

import (
	"fmt"
	"time"

	"bagpipe/internal/train"
)

// runTraced measures the per-layer metrics: a decorated baseline run, one
// untraced LRPP rep (the reference for the tracing overhead and the memory
// deltas), one traced LRPP rep, and the standalone probes. The spans are
// written to spanPath.
func runTraced(w *workload, cfg train.Config, spanPath string) (*report, error) {
	r := &report{}
	tr := newTracer()
	base, err := runBaseline(w, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}

	plain, err := runRep(w, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced rep: %w", err)
	}
	mem := plain.mem
	traced, err := runRep(w, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("traced rep: %w", err)
	}
	checkReps(r, []*baselineOut{base}, []*repOut{plain, traced})

	oracle := probeOracle(cfg, tr)
	dense, err := probeDense(cfg, tr)
	if err != nil {
		return nil, err
	}
	allreduce, err := probeAllReduce(cfg, tr)
	if err != nil {
		return nil, err
	}

	iters := float64(cfg.NumBatches)
	res := traced.res
	wall := res.Elapsed.Seconds()

	// busy adds up the calls' wall time; link adds up the simulated link
	// delay on each call's critical path; charged is the delay of every
	// link together, which the tier's own SimulatedDelay must equal.
	var busy, link, charged time.Duration
	for _, op := range []string{"fetch", "write"} {
		var c callTotals
		for _, s := range traced.stores {
			cs := s.fetch
			if op == "write" {
				cs = s.write
			}
			t := cs.snapshot()
			c.durs = append(c.durs, t.durs...)
			c.rows += t.rows
			c.busy += t.busy
			c.link += t.link
			c.charged += t.charged
		}
		busy += c.busy
		link += c.link
		charged += c.charged
		r.add("tier."+op+".calls", "count", float64(len(c.durs)))
		r.add("tier."+op+".rows_per_iter", "rows", float64(c.rows)/iters)
		r.add("tier."+op+".ms_p50", "ms", quantile(c.durs, 0.5))
		r.add("tier."+op+".ms_p99", "ms", quantile(c.durs, tailQuantile(len(c.durs), 0.99)))
		r.add("tier."+op+".busy_s", "s", c.busy.Seconds())
	}
	if charged != traced.simDelay {
		return nil, fmt.Errorf("perfbench: modelled link delay %v, the tier's SimulatedDelay %v", charged, traced.simDelay)
	}
	r.add("tier.sim_delay_s", "s", link.Seconds())
	for s := 0; s < 2; s++ {
		kb := 0.0
		if s < len(traced.perServer) {
			st := traced.perServer[s]
			kb = float64(st.BytesFetched+st.BytesWritten) / 1024 / iters
		}
		r.add(fmt.Sprintf("tier.s%d.kb_per_iter", s), "KB", kb)
	}
	r.add("tier.retries", "count", float64(traced.health.Retries))
	r.add("tier.failovers", "count", float64(traced.health.Failovers))
	baseTier := tr.coverage("baseline", "baseline.tier.fetch", "baseline.tier.write")
	r.add("tier.baseline_frac", "frac", baseTier.Seconds()/base.res.Elapsed.Seconds())
	// The share of the traced wall in which a trainer had a tier call in
	// flight, averaged over the trainers; overlapping calls count once.
	var inTier time.Duration
	for p := 0; p < cfg.NumTrainers; p++ {
		inTier += tr.coverage(fmt.Sprintf("t%d", p), "tier.fetch", "tier.write")
	}
	r.add("share.tier", "frac", inTier.Seconds()/float64(cfg.NumTrainers)/wall)

	r.add("embed.self_ms_per_iter", "ms", ms(busy-link)/iters)

	m := traced.mesh
	for c := 0; c < classOther; c++ {
		name := "mesh." + classNames[c]
		if c != classPlan {
			r.add(name+".msgs_per_iter", "count", float64(m.msgs[c].Load())/iters)
		}
		r.add(name+".kb_per_iter", "KB", float64(m.bytes[c].Load())/1024/iters)
	}
	if n := m.msgs[classOther].Load(); n > 0 {
		r.note("mesh: %d messages of a payload type this benchmark does not classify", n)
	}
	r.add("mesh.sim_delay_s", "s", traced.meshRaw.Stats().SimulatedDelay.Seconds())
	r.add("mesh.recv_idle_s", "s", time.Duration(m.recvIdle.Load()).Seconds())

	r.add("oracle.next_ms", "ms", oracle.nextMs...)
	r.add("oracle.prefetch_rows_per_iter", "rows", oracle.prefetchPerItr)
	r.add("oracle.peak_rows", "rows", float64(oracle.peakRows))

	r.add("dense.fwd_ms", "ms", dense.fwdMs...)
	r.add("dense.bwd_ms", "ms", dense.bwdMs...)
	r.add("collective.allreduce_ms", "ms", allreduce...)
	// One rank's dense work per iteration, as a share of the traced wall.
	denseIter := quantile(dense.fwdMs, 0.5) + quantile(dense.bwdMs, 0.5) + quantile(allreduce, 0.5)
	r.add("share.dense", "frac", denseIter*iters/1000/wall)

	r.add("train.hit_rate", "frac", res.HitRate())
	r.add("train.evicted_rows", "rows", float64(res.Evicted))
	r.add("train.sync_entries_per_iter", "count", float64(res.SyncEntries)/iters)
	r.add("train.urgent_flushes", "count", float64(res.UrgentFlushes))
	r.add("train.delayed_flushes", "count", float64(res.DelayedFlushes))
	r.add("train.overlap_prefetch", "count", float64(res.OverlapPrefetchTrain))
	r.add("train.overlap_writeback", "count", float64(res.OverlapMaintTrain))

	r.add("mem.allocs_per_iter", "count", float64(mem.allocs)/iters)
	r.add("mem.kb_per_iter", "KB", float64(mem.bytes)/1024/iters)
	r.add("mem.gc_cycles", "count", float64(mem.gcs))
	r.add("mem.gc_pause_ms", "ms", ms(mem.pause))

	fe := traced.fe
	st := fe.Stats()
	r.add("serve.lookup_ms_p50", "ms", ms(fe.Lookup.Quantile(0.5)))
	r.add("serve.lookup_ms_p99", "ms", ms(fe.Lookup.Quantile(tailQuantile(int(fe.Lookup.Count()), 0.99))))
	// The request span's self time is the front end's own work — admission,
	// cache gather, model forward — with its tier reads taken out.
	self := tr.selfTimes()
	r.add("serve.forward_ms", "ms", self["serve.request"]/float64(max(traced.load.served, 1)))
	rd := traced.reads.reads.snapshot().durs
	r.add("serve.read.calls", "count", float64(len(rd)))
	r.add("serve.read.ms_p99", "ms", quantile(rd, tailQuantile(len(rd), 0.99)))
	hitRate := 0.0
	if n := st.Cache.Hits + st.Cache.Misses; n > 0 {
		hitRate = float64(st.Cache.Hits) / float64(n)
	}
	r.add("serve.cache.hit_rate", "frac", hitRate)
	r.add("serve.cache.stale", "count", float64(st.Cache.Stale))
	r.add("serve.cache.evictions", "count", float64(st.Cache.Evictions))
	r.add("serve.shed", "count", float64(st.RateShed+st.TierShed))
	r.add("serve.breaker_trips", "count", float64(st.Trips))
	late := traced.load.lateMs
	r.add("loadgen.late_ms_p99", "ms", quantile(late, tailQuantile(len(late), 0.99)))
	r.add("trace.overhead_frac", "frac", 1-traced.exS()/plain.exS())

	if err := tr.write(spanPath, self); err != nil {
		return nil, fmt.Errorf("span file: %w", err)
	}
	r.note("spans: %s (%d spans); self ms: tier.fetch %.1f, tier.write %.1f, serve.request %.1f, serve.query %.1f",
		spanPath, len(tr.spans), self["tier.fetch"], self["tier.write"], self["serve.request"], self["serve.query"])
	r.note("traced LRPP wall %.2fs over %d iters; tier calls %.2fs summed, link delay %.2fs on their critical path, %.2fs over all links; baseline wall %.2fs, %.2fs of it in tier calls",
		wall, cfg.NumBatches, busy.Seconds(), link.Seconds(), charged.Seconds(),
		base.res.Elapsed.Seconds(), baseTier.Seconds())
	return r, nil
}
