// Command perfbench is the repository's benchmark. One run trains one
// workload while serving queries from its embedding tier, checks the
// outputs against the no-cache baseline, and prints every metric with its
// unit, sample count, value and spread, ending with one JSON line:
//
//	go run . --workload remote-tier --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced runs. --trace 1
// decorates the tier clients, the trainer mesh and the serving read path,
// runs standalone probes of the layers the engine has no seam for, reports
// the per-layer metrics and writes the recorded spans to a file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"bagpipe/internal/serve"
	"bagpipe/internal/train"
)

func main() { os.Exit(run()) }

func run() int {
	wl := flag.String("workload", "", "workload: remote-tier, loopback-tcp, serve-mixed")
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "training time a run is sized for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a span file")
	spanDir := flag.String("span-dir", filepath.Join(".bench_build", "spans"), "where the traced run writes its span file")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	w, err := findWorkload(*wl)
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg := w.config(*seed, *seconds)
	fmt.Printf("perfbench: workload %s seed %d, %d reps x %d batches of %d, P=%d, GOMAXPROCS=%d\n",
		w.name, *seed, reps, cfg.NumBatches, cfg.BatchSize, cfg.NumTrainers, runtime.GOMAXPROCS(0))

	var r *report
	if *trace == 1 {
		path := filepath.Join(*spanDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
		r, err = runTraced(w, cfg, path)
	} else {
		r, err = runEndToEnd(w, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r.print(os.Stdout)
	if !r.correct() {
		return 1
	}
	return 0
}

// report is one run's outcome: the operations attempted and failed, the
// correctness gates that failed, and the metrics in print order.
type report struct {
	attempted, failed int64
	gateFailures      []string
	metrics           []metric
	notes             []string
}

// metric is one reported figure. An info metric is printed in the table but
// left out of the JSON result, which carries exactly the metrics
// BENCHMARK.json names.
type metric struct {
	name, unit string
	s          summary
	info       bool
}

func (r *report) add(name, unit string, samples ...float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, s: summarize(samples)})
}

// addPooled reports value, computed by the caller over all samples' work at
// once, with the samples giving the count and the spread.
func (r *report) addPooled(name, unit string, value float64, samples ...float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, s: summarizeAt(value, samples)})
}

func (r *report) addInfo(name, unit string, samples ...float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, s: summarize(samples), info: true})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// gate records one correctness check; a failed check is a failed operation.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gateFailures = append(r.gateFailures, fmt.Sprintf(format, args...))
		r.failed++
	}
}

func (r *report) correct() bool { return len(r.gateFailures) == 0 }

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	for _, f := range r.gateFailures {
		fmt.Fprintln(w, "GATE FAILED:", f)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.addInfo("ops_failed_frac", "frac", frac)
	fmt.Fprintf(w, "%-32s %14s %-6s %4s %9s\n", "metric", "value", "unit", "n", "spread")
	for _, m := range r.metrics {
		tag := ""
		if m.info {
			tag = " (not in JSON)"
		}
		fmt.Fprintf(w, "%-32s %14.6g %-6s %4d %8.2f%%%s\n", m.name, m.s.value, m.unit, m.s.n, 100*m.s.spread, tag)
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", r.attempted, r.failed)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range r.metrics {
		if m.info {
			continue
		}
		v := m.s.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	buf, _ := json.Marshal(out) // a map of plain structs always marshals
	fmt.Fprintln(w, string(buf))
}

// checkReps applies the training gates: every rep and every baseline run
// must end with the same tier fingerprint (the no-cache baseline's is the
// reference), a finite loss, and the same loss as every other rep of the
// same seed; every front end must pass its consistency audit.
func checkReps(r *report, bases []*baselineOut, outs []*repOut) {
	ref := bases[0]
	for i, b := range bases {
		r.gate(b.fp == ref.fp, "baseline %d: tier fingerprint %#x, baseline 0 %#x", i, b.fp, ref.fp)
		r.gate(finite(b.res.LastLoss), "baseline %d: final loss %v is not finite", i, b.res.LastLoss)
		checkServing(r, fmt.Sprintf("baseline %d", i), b.fe, b.load)
	}
	for i, o := range outs {
		r.gate(o.fp == ref.fp, "rep %d: tier fingerprint %#x, no-cache baseline %#x", i, o.fp, ref.fp)
		r.gate(finite(o.res.LastLoss), "rep %d: final loss %v is not finite", i, o.res.LastLoss)
		r.gate(o.res.LastLoss == outs[0].res.LastLoss, "rep %d: final loss %v differs from rep 0's %v", i, o.res.LastLoss, outs[0].res.LastLoss)
		checkServing(r, fmt.Sprintf("rep %d", i), o.fe, o.load)
	}
	r.attempted += int64(len(bases) + len(outs))
}

// checkServing gates one run's front end on its consistency audit and
// counts its requests as operations.
func checkServing(r *report, run string, fe *serve.Frontend, load *loadResult) {
	a := fe.Audit()
	r.gate(a.Clean(), "%s: serving audit: %v", run, a)
	r.attempted += load.issued
	r.failed += load.failed
}

func finite(x float32) bool { return !math.IsNaN(float64(x)) && !math.IsInf(float64(x), 0) }

// runEndToEnd measures the end-to-end metrics with nothing traced: `reps`
// identical LRPP reps, each on a fresh tier and serving while it trains,
// with a no-cache baseline run on a fresh tier before each rep.
func runEndToEnd(w *workload, cfg train.Config) (*report, error) {
	r := &report{}
	start := time.Now()
	steal0, _ := readSteal()
	defer func() {
		steal1, cpus := readSteal()
		r.note("hypervisor steal during the run: %.1f%% of the time of %d vCPUs (not taken out of any metric)",
			100*stealShare(steal0, steal1, cpus, time.Since(start)), cpus)
	}()
	var bases []*baselineOut
	var outs []*repOut
	var exS, baseExS, setup, loss, mem []float64
	var ex, baseEx int64
	var dur, baseDur time.Duration
	for i := 0; i < reps; i++ {
		b, err := runBaseline(w, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("baseline %d: %w", i, err)
		}
		bases = append(bases, b)
		baseExS = append(baseExS, b.exS())
		baseEx += b.steadyEx
		baseDur += b.steadyDur
		o, err := runRep(w, cfg, nil)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", i, err)
		}
		outs = append(outs, o)
		exS = append(exS, o.exS())
		ex += o.steadyEx
		dur += o.steadyDur
		setup = append(setup, o.setup.Seconds())
		loss = append(loss, float64(o.res.LastLoss))
		mem = append(mem, float64(o.memPeak)/1e6)
	}
	checkReps(r, bases, outs)
	r.note("per rep: train_ex_s %.5g, baseline_ex_s %.5g, setup_s %.4g", exS, baseExS, setup)

	// Throughput pools the reps' work: all steady-state examples over all
	// steady-state time, so a rep that lands in a slow phase of the
	// pipeline weighs by its length instead of flipping a median.
	r.addPooled("train_ex_s", "ex/s", float64(ex)/dur.Seconds(), exS...)
	r.addPooled("baseline_ex_s", "ex/s", float64(baseEx)/baseDur.Seconds(), baseExS...)
	r.add("setup_s", "s", setup...)
	r.add("final_loss", "nats", loss...)
	r.add("mem_peak_mb", "MB", mem...)
	addServing(r, w, outs)
	return r, nil
}

// latencyWindow is how many consecutive requests one tail estimate uses:
// enough for a p99 with ten samples beyond it.
const latencyWindow = 1000

// addServing reports serving latency over every rep. The p50 is over all
// served requests. The tail is the median, over windows of latencyWindow
// consecutive requests, of each window's p99 (or, when fewer requests were
// served, of the highest percentile with ten samples beyond it), so one
// burst of host interference moves one window, not the figure. The tail and
// the SLO misses are printed but not in the JSON result: across seeds on a
// shared 2-vCPU host their spread is wider than any bound the result may
// carry.
func addServing(r *report, w *workload, outs []*repOut) {
	var all loadResult
	for _, o := range outs {
		all.add(*o.load)
	}
	lat := all.latMs
	q := 0.99
	var tails []float64
	if len(lat) < latencyWindow {
		q = tailQuantile(len(lat), q)
		tails = append(tails, quantile(slices.Clone(lat), q))
	}
	for i := 0; i+latencyWindow <= len(lat); i += latencyWindow {
		tails = append(tails, quantile(slices.Clone(lat[i:i+latencyWindow]), q))
	}
	miss := all.sloMisses(w.serveLimit)
	r.add("serve_p50_ms", "ms", quantile(slices.Clone(lat), 0.5))
	r.addInfo("serve_p99_ms", "ms", tails...)
	r.addInfo("serve_slo_miss_frac", "frac", float64(miss)/float64(max(all.issued, 1)))
	r.addInfo("loadgen.late_ms_p99", "ms", quantile(all.lateMs, tailQuantile(len(all.lateMs), 0.99)))
	r.note("serving while training: %d requests issued at %.0f/s from %d goroutines, %d served, %d failed, %d over the %v limit; serve_p99_ms is the median p%.4g over %d windows of %d",
		all.issued, w.serveQPS, runtime.GOMAXPROCS(0), all.served, all.failed, miss, w.serveLimit, 100*q, len(tails), min(len(lat), latencyWindow))
}
