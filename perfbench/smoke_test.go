package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bagpipe/internal/train"
)

// benchmarkMetrics reads the metric names BENCHMARK.json promises for the
// untraced (end_to_end) and traced (per_layer) runs.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	for _, m := range doc.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range doc.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestWorkloadsSmoke runs every workload at its shortest length, untraced
// and traced, and fails if a correctness gate fails or a metric named in
// BENCHMARK.json is missing.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.config(7, 0)
			for _, traced := range []bool{false, true} {
				var (
					r    *report
					err  error
					want = endToEnd
				)
				if traced {
					want = perLayer
					spans := filepath.Join(t.TempDir(), "spans.json")
					r, err = runTraced(w, cfg, spans)
					if err == nil {
						if _, serr := os.Stat(spans); serr != nil {
							t.Errorf("traced run wrote no span file: %v", serr)
						}
					}
				} else {
					r, err = runEndToEnd(w, cfg)
				}
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !r.correct() {
					t.Fatalf("traced=%v: gates failed: %v", traced, r.gateFailures)
				}
				if r.attempted == 0 || r.failed != 0 {
					t.Errorf("traced=%v: %d of %d operations failed", traced, r.failed, r.attempted)
				}
				have := map[string]float64{}
				for _, m := range r.metrics {
					have[m.name] = m.s.value
				}
				for _, name := range want {
					if _, ok := have[name]; !ok {
						t.Errorf("traced=%v: metric %s missing", traced, name)
					}
				}
				if !traced {
					continue
				}
				// Self time and shares of wall time cannot be negative, and
				// a share of the time in tier calls cannot exceed the whole.
				if v := have["embed.self_ms_per_iter"]; v < 0 {
					t.Errorf("embed.self_ms_per_iter = %v, want >= 0", v)
				}
				for _, name := range []string{"share.tier", "tier.baseline_frac"} {
					if v := have[name]; v < 0 || v > 1 {
						t.Errorf("%s = %v, want within [0, 1]", name, v)
					}
				}
			}
		})
	}
}

// TestDecoratedRunMatchesPlain pins the decorators as observers: a rep
// trained and served through the timing decorators ends with the same tier
// fingerprint and the same deterministic Result counters as an undecorated
// rep, and its front end passes the same audit.
func TestDecoratedRunMatchesPlain(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := w.config(3, 0)
			plain, err := runRep(w, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runRep(w, cfg, newTracer())
			if err != nil {
				t.Fatal(err)
			}
			if plain.fp != traced.fp {
				t.Errorf("fingerprint: plain %#x, decorated %#x", plain.fp, traced.fp)
			}
			if p, d := counters(plain.res), counters(traced.res); p != d {
				t.Errorf("Result counters differ:\nplain     %+v\ndecorated %+v", p, d)
			}
			if ph, dh := plain.health, traced.health; ph.Failovers != dh.Failovers || ph.Retries != dh.Retries {
				t.Errorf("tier health: plain %+v, decorated %+v", plain.health, traced.health)
			}
			if ts := traced.stores; len(ts) == 0 {
				t.Error("decorated rep recorded no tier calls")
			}
			if len(traced.reads.reads.snapshot().durs) == 0 {
				t.Error("decorated read path recorded no tier reads")
			}
			for name, o := range map[string]*repOut{"plain": plain, "decorated": traced} {
				if a := o.fe.Audit(); !a.Clean() {
					t.Errorf("%s rep: serving audit: %v", name, a)
				}
			}
		})
	}
}

// resultCounters is the part of train.Result that depends only on the
// configuration, not on scheduling.
type resultCounters struct {
	Iters                           int
	Examples, UniqueIDs, CachedHits int64
	Prefetched, Evicted             int64
	ReplicaRows, SyncEntries        int64
	FirstLoss, LastLoss             float32
	AvgLoss                         float64
	RowsFetched, RowsWritten        int64
	BytesFetched, BytesWritten      int64
	MeshClasses                     train.MeshTraffic
	Fetches, Writes                 int64
}

func counters(r *train.Result) resultCounters {
	return resultCounters{
		Iters: r.Iters, Examples: r.Examples, UniqueIDs: r.UniqueIDs, CachedHits: r.CachedHits,
		Prefetched: r.Prefetched, Evicted: r.Evicted,
		ReplicaRows: r.ReplicaRows, SyncEntries: r.SyncEntries,
		FirstLoss: r.FirstLoss, LastLoss: r.LastLoss, AvgLoss: r.AvgLoss,
		RowsFetched: r.Transport.RowsFetched, RowsWritten: r.Transport.RowsWritten,
		BytesFetched: r.Transport.BytesFetched, BytesWritten: r.Transport.BytesWritten,
		MeshClasses: r.MeshClasses,
		Fetches:     r.Transport.Fetches, Writes: r.Transport.Writes,
	}
}
