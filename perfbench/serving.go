package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"bagpipe/internal/data"
	"bagpipe/internal/serve"
	"bagpipe/internal/train"
)

// serving is an open-loop load on a front end, running in the background
// while a run trains: `workers` goroutines, one front-end client each, take
// requests in due order; a worker that is free waits for the next request's
// due time, and one that falls behind issues overdue requests at once rather
// than forgiving the debt, which is what makes the load open-loop.
type serving struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	parts []loadResult
	done  [][]served
}

// startServing serves fe at qps from GOMAXPROCS goroutines until finish.
// expect is about how long the load will run: everything the generator
// needs, room for that many requests included, is allocated before it
// returns, so the load allocates nothing of its own while the run is timed.
func startServing(fe *serve.Frontend, cfg train.Config, qps float64, expect time.Duration, tr *tracer, reqs *requestSlots) *serving {
	dist, _ := data.ServingDist("zipf") // a name the data package defines
	sch := &schedule{
		start:    time.Now(),
		interval: time.Duration(float64(time.Second) / qps),
		qg:       data.NewQueryGen(cfg.Spec, cfg.Seed^0x5E, 0, dist),
	}
	workers := runtime.GOMAXPROCS(0)
	// Four times the expected share of each worker, so a slow run still fits.
	room := int(4*qps*expect.Seconds())/workers + 16
	s := &serving{stop: make(chan struct{}), parts: make([]loadResult, workers), done: make([][]served, workers)}
	for c := 0; c < workers; c++ {
		s.parts[c].lateMs = make([]float64, 0, room)
		s.done[c] = make([]served, 0, room)
		s.wg.Add(1)
		go func(c int) {
			defer s.wg.Done()
			s.done[c] = serveWorker(fe, sch, c, s.stop, tr, reqs, &s.parts[c], s.done[c])
		}(c)
	}
	return s
}

// finish stops the load, waits for its workers and merges what they
// measured.
func (s *serving) finish() *loadResult {
	close(s.stop)
	s.wg.Wait()
	var out loadResult
	var all []served
	for c := range s.parts {
		out.add(s.parts[c])
		all = append(all, s.done[c]...)
	}
	// Schedule order, so windows of consecutive entries are windows of time.
	slices.SortFunc(all, func(a, b served) int { return a.k - b.k })
	for _, r := range all {
		out.latMs = append(out.latMs, r.ms)
	}
	return &out
}

// loadResult is one open-loop serving phase. Latencies are measured from
// each request's due time, so a stall that delays later requests is charged
// to them too.
type loadResult struct {
	issued, served, failed int64
	latMs                  []float64 // served requests in schedule order, due time to reply
	lateMs                 []float64 // how late each request was issued
}

func (r *loadResult) add(o loadResult) {
	r.issued += o.issued
	r.served += o.served
	r.failed += o.failed
	r.latMs = append(r.latMs, o.latMs...)
	r.lateMs = append(r.lateMs, o.lateMs...)
}

// sloMisses counts issued requests that failed or took longer than limit.
func (r *loadResult) sloMisses(limit time.Duration) int64 {
	miss := r.failed
	for _, l := range r.latMs {
		if l > ms(limit) {
			miss++
		}
	}
	return miss
}

// schedule hands out requests in due order: request k is due at
// start + k/qps whatever happened to earlier requests, and its query is the
// k-th draw of one seeded stream, so a seed fixes every request whichever
// worker serves it.
type schedule struct {
	mu       sync.Mutex
	next     int
	start    time.Time
	interval time.Duration
	qg       *data.QueryGen
}

// take claims the next request, filling ex with its query.
func (s *schedule) take(ex *data.Example) (k int, due time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k = s.next
	s.next++
	s.qg.Next(ex)
	return k, s.start.Add(time.Duration(k) * s.interval)
}

// served is one served request's latency and its place in the schedule.
type served struct {
	k  int
	ms float64
}

func serveWorker(fe *serve.Frontend, sch *schedule, c int, stop <-chan struct{},
	tr *tracer, reqs *requestSlots, out *loadResult, done []served) []served {
	var (
		ex data.Example
		g  int64
	)
	if tr != nil {
		g = goid()
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		k, due := sch.take(&ex)
		if wait := time.Until(due); wait > 0 {
			timer.Reset(wait)
			select {
			case <-stop:
				return done
			case <-timer.C:
			}
		} else {
			select {
			case <-stop:
				return done
			default:
			}
		}
		issue := time.Now()
		var qid, rid int64
		group := ""
		if tr != nil {
			group = fmt.Sprintf("q%d", k)
			qid, rid = tr.newID(), tr.newID()
			reqs.set(g, slot{span: rid, group: group})
		}
		_, err := fe.Serve(c, &ex)
		end := time.Now()
		out.issued++
		out.lateMs = append(out.lateMs, ms(issue.Sub(due)))
		if err != nil {
			out.failed++
		} else {
			out.served++
			done = append(done, served{k: k, ms: ms(end.Sub(due))})
		}
		if tr != nil {
			tr.record(rid, qid, group, "serve.request", issue, end)
			tr.record(qid, 0, group, "serve.query", due, end)
		}
	}
}
