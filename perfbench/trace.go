package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/core"
	"bagpipe/internal/transport"
)

// span is one timed interval recorded at a layer boundary by the
// benchmark's own decorators and probes. Group is shared by the spans of one
// query ("q17"), one trainer's tier client ("t0") or one probe iteration.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Group  string `json:"group"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths never pay for it.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, 1<<14)}
}

// newID reserves a span id before the span ends, so children recorded
// first can name it as their parent.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

func (t *tracer) record(id, parent int64, group, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.newID()
	}
	s := span{ID: id, Parent: parent, Group: group, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration minus the part of
// each span's interval covered by its children, in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		d := s.End - s.Start
		d -= covered(s, children[s.ID])
		self[s.Name] += float64(d) / 1e6
	}
	return self
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var total, end int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// coverage is the length of the union of the intervals of group's spans
// named one of names: the time at least one of them was in progress.
func (t *tracer) coverage(group string, names ...string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var set []span
	for _, s := range t.spans {
		if s.Group == group && slices.Contains(names, s.Name) {
			set = append(set, s)
		}
	}
	return time.Duration(covered(span{Start: math.MinInt64, End: math.MaxInt64}, set))
}

// write stores the spans and the per-name self times as one JSON document.
func (t *tracer) write(path string, self map[string]float64) error {
	t.mu.Lock()
	doc := struct {
		Spans  []span             `json:"spans"`
		SelfMs map[string]float64 `json:"self_ms"`
	}{t.spans, self}
	buf, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// goid returns the calling goroutine's id. Only the traced serving path uses
// it, to find the request span a tier read belongs to: the front end's read
// runs on the generator goroutine that issued the request.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	n, _ := strconv.ParseInt(string(b), 10, 64)
	return n
}

// callTotals is one operation's calls through a decorator: per-call
// durations, rows, the summed call time, and on a simulated fabric the
// link delay on each call's critical path and the delay charged to all
// links together.
type callTotals struct {
	durs          []float64 // ms
	rows          int64
	busy          time.Duration
	link, charged time.Duration
}

// callStats accumulates one operation's callTotals.
type callStats struct {
	mu sync.Mutex
	t  callTotals
}

func (c *callStats) add(d time.Duration, rows int, link, charged time.Duration) {
	c.mu.Lock()
	c.t.durs = append(c.t.durs, ms(d))
	c.t.rows += int64(rows)
	c.t.busy += d
	c.t.link += link
	c.t.charged += charged
	c.mu.Unlock()
}

func (c *callStats) snapshot() callTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.t
	t.durs = slices.Clone(t.durs)
	return t
}

// timedStore decorates the whole tier client handed to one trainer (or to
// the baseline), never a ShardedStore's children: wrapping a child would
// hide its in-process fast path and switch the tier from its inline scatter
// to goroutine fan-out. Embedding the interface forwards the tier
// operations and deliberately hides TierHealth, which the benchmark reads
// from the raw *ShardedStore instead.
type timedStore struct {
	transport.Store
	prefix       string // span name prefix: "tier" or "baseline.tier"
	group        string
	tr           *tracer
	links        *simLinks // nil unless the tier's links are simulated
	fetch, write *callStats
}

func (s *timedStore) Fetch(ids []uint64) [][]float32 {
	start := time.Now()
	rows := s.Store.Fetch(ids)
	s.observe(s.fetch, "fetch", ids, false, start, time.Now())
	return rows
}

func (s *timedStore) Write(ids []uint64, rows [][]float32) {
	start := time.Now()
	s.Store.Write(ids, rows)
	s.observe(s.write, "write", ids, true, start, time.Now())
}

// observe records one call. On a simulated fabric the link delay on the
// call's critical path becomes a child span at the call's start, so the
// call's self time is the tier's own work.
func (s *timedStore) observe(cs *callStats, op string, ids []uint64, write bool, start, end time.Time) {
	var link, charged time.Duration
	if s.links != nil {
		link, charged = s.links.charge(ids, write)
	}
	cs.add(end.Sub(start), len(ids), link, charged)
	id := s.tr.newID()
	if link > 0 {
		s.tr.record(0, id, s.group, s.prefix+".link", start, start.Add(link))
	}
	s.tr.record(id, 0, s.group, s.prefix+"."+op, start, end)
}

// simLinks models the delay transport.SimNet charges a call: each server's
// sub-batch pays one link latency plus its payload (an 8-byte id and dim
// float32s per row) over the link bandwidth. The tier sends a call's
// sub-batches to its servers at once, so the call waits for the longest
// one, while the tier's SimulatedDelay adds up the charge on every link.
// The traced run checks the summed charge against SimulatedDelay.
type simLinks struct {
	servers, replicate, dim int
	latency                 time.Duration
	bandwidth               float64
}

func (l *simLinks) charge(ids []uint64, write bool) (critical, total time.Duration) {
	rows := make([]int64, l.servers)
	for _, id := range ids {
		rows[core.OwnerOf(id, l.servers)]++
	}
	copies := 1
	if write {
		copies = l.replicate // a write goes to every replica of its partition
	}
	for _, n := range rows {
		if n == 0 {
			continue
		}
		bytes := n * (8 + int64(l.dim)*4)
		d := l.latency + time.Duration(float64(bytes)/l.bandwidth*float64(time.Second))
		critical = max(critical, d)
		total += time.Duration(copies) * d
	}
	return critical, total
}

// Mesh payload classes, counted on Send by payload type. classOther counts
// payload types this benchmark does not know yet.
const (
	classReplica = iota
	classSync
	classColl
	classPlan
	classOther
	numClasses
)

var classNames = [numClasses]string{"replica", "sync", "coll", "plan", "other"}

func classify(payload any) int {
	switch payload.(type) {
	case transport.ReplicaMsg, *transport.ReplicaMsg:
		return classReplica
	case transport.SyncMsg, *transport.SyncMsg, transport.SyncBatchMsg, *transport.SyncBatchMsg:
		return classSync
	case transport.CollMsg, *transport.CollMsg, transport.FusedCollMsg, *transport.FusedCollMsg:
		return classColl
	case transport.PlanMsg, *transport.PlanMsg:
		return classPlan
	}
	return classOther
}

// timedMesh decorates a trainer mesh: every endpoint it hands out counts
// sends by payload class and times how long receivers sit blocked.
type timedMesh struct {
	transport.Mesh
	tr       *tracer
	msgs     [numClasses]atomic.Int64
	bytes    [numClasses]atomic.Int64
	recvIdle atomic.Int64
}

func (m *timedMesh) Endpoint(rank int) transport.Endpoint {
	return &timedEndpoint{Endpoint: m.Mesh.Endpoint(rank), m: m, group: fmt.Sprintf("t%d", rank)}
}

type timedEndpoint struct {
	transport.Endpoint
	m     *timedMesh
	group string
}

func (e *timedEndpoint) Send(to int, bytes int64, payload any) bool {
	c := classify(payload)
	ok := e.Endpoint.Send(to, bytes, payload)
	if ok {
		e.m.msgs[c].Add(1)
		e.m.bytes[c].Add(bytes)
	}
	return ok
}

func (e *timedEndpoint) Recv() (transport.MeshMsg, bool) {
	start := time.Now()
	msg, ok := e.Endpoint.Recv()
	end := time.Now()
	e.m.recvIdle.Add(int64(end.Sub(start)))
	e.m.tr.record(0, 0, e.group, "mesh.recv_wait", start, end)
	return msg, ok
}

// timedReadStore decorates the serving front end's read face. Each read is
// a child of the request span active on the calling goroutine, and the read
// policy it forwards to (the front end's circuit breaker) is wrapped so
// every per-server attempt becomes a child span of the read.
type timedReadStore struct {
	inner transport.ReadStore
	tr    *tracer
	reqs  *requestSlots
	reads callStats
}

func (s *timedReadStore) Dim() int { return s.inner.Dim() }

func (s *timedReadStore) ReadFetch(ids []uint64, pol transport.ReadPolicy) ([][]float32, error) {
	parent, group := s.reqs.lookup(goid())
	id := s.tr.newID()
	start := time.Now()
	rows, err := s.inner.ReadFetch(ids, &timedPolicy{inner: pol, s: s, parent: id, group: group})
	end := time.Now()
	s.reads.add(end.Sub(start), len(ids), 0, 0)
	s.tr.record(id, parent, group, "serve.read", start, end)
	return rows, err
}

type timedPolicy struct {
	inner  transport.ReadPolicy
	s      *timedReadStore
	parent int64
	group  string
}

func (p *timedPolicy) AllowRead(server int) bool { return p.inner.AllowRead(server) }

func (p *timedPolicy) ObserveRead(server int, d time.Duration, err error) {
	p.inner.ObserveRead(server, d, err)
	end := time.Now()
	p.s.tr.record(0, p.parent, p.group, fmt.Sprintf("serve.read.s%d", server), end.Add(-d), end)
}

// requestSlots maps each serving goroutine to the request span it is
// serving, for the traced read path. One slot per generator goroutine.
type requestSlots struct {
	mu    sync.Mutex
	slots map[int64]slot
}

type slot struct {
	span  int64
	group string
}

func newRequestSlots() *requestSlots { return &requestSlots{slots: map[int64]slot{}} }

func (r *requestSlots) set(g int64, s slot) {
	r.mu.Lock()
	r.slots[g] = s
	r.mu.Unlock()
}

func (r *requestSlots) lookup(g int64) (int64, string) {
	if r == nil {
		return 0, ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.slots[g]
	return s.span, s.group
}
