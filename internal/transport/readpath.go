package transport

import (
	"fmt"
	"sync"
	"time"
)

// The read-mostly fast path. Training owns the tier's write story — acked
// replicated writes, retry-then-condemn failover, panics when a partition
// is truly gone, because a trainer without its tier cannot make progress.
// An inference front end sharing the tier has the opposite contract: reads
// only, latency-bounded, and a failed lookup must become a shed request,
// never a dying process. ReadFetch is that contract: one attempt per live
// replica in ring order, no retry sleep, no dead-marking, an attributed
// *TierError returned as a value when every replica of a partition is
// unavailable — and a ReadPolicy hook so an admission-control layer (the
// serving circuit breaker) can veto servers it has observed failing or
// crawling *before* a request queues behind them.

// ReadPolicy steers the read path's per-server routing. AllowRead is
// consulted before each attempt (an open circuit breaker answers false,
// diverting the sub-batch to the next replica on the ring); ObserveRead is
// told the outcome of every attempt actually made — duration and error —
// which is the signal breakers and latency accounting feed on.
// Implementations must be safe for concurrent use: the scatter calls them
// from per-partition goroutines.
type ReadPolicy interface {
	AllowRead(server int) bool
	ObserveRead(server int, d time.Duration, err error)
}

// ReadStore is the face the serving path consumes: a fail-fast,
// policy-routed, errorful fetch. *ShardedStore implements it natively;
// AsReadStore adapts the single-server transports.
type ReadStore interface {
	ReadFetch(ids []uint64, pol ReadPolicy) ([][]float32, error)
	Dim() int
}

// ReadFetch implements ReadStore over the tier: the scatter/gather of
// Fetch, but per partition each replica is tried exactly once in ring
// order — skipping servers the tier knows are dead and servers pol vetoes —
// and exhaustion returns an attributed *TierError instead of panicking.
// Rows come from the same pooled allocator as Fetch (caller owns header and
// rows); on error every row already gathered is recycled before returning,
// so a shed request costs no pool capacity.
//
// Like Fetch, each pass runs under the routing install barrier; a server
// rejecting a sub-batch as stale-routed aborts the pass, which adopts the
// newer table and reissues — even the fail-fast read path self-heals
// across a reshard, because the fence is routing disagreement, not server
// trouble (it is invisible to the read policy and the failure streaks).
func (t *ShardedStore) ReadFetch(ids []uint64, pol ReadPolicy) ([][]float32, error) {
	sc := t.getScratch()
	defer t.putScratch(sc)
	out := GetRowSlice(len(ids))
	completed := false
	defer func() {
		if completed {
			return
		}
		Rows(t.dim).PutN(out)
		PutRowSlice(out)
	}()
	for attempt := 0; ; attempt++ {
		stale, err := t.readFetchOnce(sc, ids, out, pol)
		if err != nil {
			return nil, err
		}
		if stale == nil {
			break
		}
		Rows(t.dim).PutN(out)
		clear(out)
		if attempt >= staleRetryLimit {
			return nil, &TierError{Op: "read", Partition: -1, Server: stale.Server, Replicate: t.replicate, Cause: stale}
		}
		t.adoptRouting(stale)
	}
	completed = true
	return out, nil
}

// readFetchOnce runs one read pass under the routing install barrier,
// grouping ids by read ring exactly like fetchOnce. A stale-routing fence
// outranks a replica failure: the failure may be an artifact of routing by
// the wrong table, so the caller adopts and reissues before believing it.
func (t *ShardedStore) readFetchOnce(sc *shardScratch, ids []uint64, out [][]float32, pol ReadPolicy) (*StaleRoutingError, error) {
	t.installMu.RLock()
	defer t.installMu.RUnlock()
	rt := t.routing.Load()
	pos, bounds := sc.groupReads(rt, ids)
	var (
		stale    *StaleRoutingError
		firstErr error
	)
	record := func(se *StaleRoutingError, err error) {
		if se != nil && stale == nil {
			stale = se
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if t.serialScatter(bounds) {
		for key := 0; key+1 < len(bounds); key++ {
			if bounds[key] != bounds[key+1] {
				record(t.readPartition(sc, rt, key, ids, pos, bounds, out, pol))
			}
		}
	} else {
		var mu sync.Mutex
		t.forEachPartition(bounds, func(key int) int { base, _ := rt.readRing(key); return base }, func(key int) {
			se, err := t.readPartition(sc, rt, key, ids, pos, bounds, out, pol)
			mu.Lock()
			record(se, err)
			mu.Unlock()
		})
	}
	if stale != nil {
		return stale, nil
	}
	return nil, firstErr
}

// readPartition issues one read ring's sub-batch down the ring and gathers
// the rows into the request-order result.
func (t *ShardedStore) readPartition(sc *shardScratch, rt *RoutingTable, key int, ids []uint64, pos, bounds []int, out [][]float32, pol ReadPolicy) (*StaleRoutingError, error) {
	run := pos[bounds[key]:bounds[key+1]]
	sub := sc.sub[key][:0]
	for _, p := range run {
		sub = append(sub, ids[p])
	}
	sc.sub[key] = sub
	base, width := rt.readRing(key)
	rows, se, err := t.readRingSub(base, width, sub, pol)
	if se != nil || err != nil {
		return se, err
	}
	for i, p := range run {
		out[p] = rows[i]
	}
	PutRowSlice(rows)
	return nil, nil
}

// readRingSub reads one sub-batch down the replica ring based at base in a
// width-wide partition space: one attempt per admissible live server, an
// attributed *TierError when none served it, a *StaleRoutingError when a
// server fenced the attempt (never observed, never counted — routing
// disagreement is not server trouble).
func (t *ShardedStore) readRingSub(base, width int, sub []uint64, pol ReadPolicy) ([][]float32, *StaleRoutingError, error) {
	depth := t.replicate
	if depth > width {
		depth = width
	}
	lastSrv, vetoed := base, false
	var lastErr error
	for k := 0; k < depth; k++ {
		s := (base + k) % width
		// down, not just dead: a resyncing server must not serve reads
		// until its partitions verify — unverified rows never reach an
		// inference response.
		if t.down(s) {
			lastSrv = s
			continue
		}
		if pol != nil && !pol.AllowRead(s) {
			lastSrv, vetoed = s, true
			continue
		}
		g := t.gen[s].Load()
		rows, err := t.readOnce(s, sub, pol)
		if err != nil {
			if se := asStaleRouting(err); se != nil {
				se.Server = s
				return nil, se, nil
			}
			// The read path tries each replica once per request, so the
			// retry budget spreads across requests: `retries` consecutive
			// read errors condemn the server (fenced by the generation
			// captured before the attempt), exactly like a write-path
			// exhaustion. This is how a read-only tier client (the serving
			// front end) learns a server died — DeadServers() feeds its
			// Reviver — instead of paying a failed attempt every request.
			if t.replicate > 1 && int(t.readFails[s].Add(1)) >= t.retries {
				t.markDeadIfGen(s, g, err)
			}
			lastSrv, lastErr = s, err
			continue
		}
		t.readFails[s].Store(0)
		if s != base {
			t.failovers.Add(1)
		}
		return rows, nil, nil
	}
	if lastErr == nil && vetoed {
		lastErr = fmt.Errorf("transport: every live replica vetoed by the read policy (breaker open)")
	}
	if lastErr == nil {
		lastErr = t.deadCause(lastSrv)
	}
	return nil, nil, &TierError{Op: "read", Partition: base, Server: lastSrv, Replicate: t.replicate, Cause: lastErr}
}

// readOnce is one timed, observed attempt against server s. Children
// without a fallible face cannot fail, so they take the errorless call.
// A stale-routing fence short-circuits *before* the policy observes it:
// the fence carries no latency or health signal about the server.
func (t *ShardedStore) readOnce(s int, sub []uint64, pol ReadPolicy) (rows [][]float32, err error) {
	start := time.Now()
	if f := t.fall(s); f != nil {
		rows, err = f.TryFetch(sub)
	} else {
		rows = t.child(s).Fetch(sub)
	}
	if asStaleRouting(err) != nil {
		return nil, err
	}
	if pol != nil {
		pol.ObserveRead(s, time.Since(start), err)
	}
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// singleReadStore adapts a one-server Store to the ReadStore face: server
// index 0, one attempt, the store's fallible face when it has one.
type singleReadStore struct {
	st  Store
	f   FallibleStore
	dim int
}

// AsReadStore returns the read-mostly face of any tier client: a
// *ShardedStore serves it natively (replica routing, policy hooks), any
// other Store becomes a one-server read path on server index 0 whose
// failures (for fallible stores: a broken TCP link) surface as a *TierError
// with partition 0 — the same attribution contract at every tier width.
func AsReadStore(st Store) ReadStore {
	if rs, ok := st.(ReadStore); ok {
		return rs
	}
	f, _ := st.(FallibleStore)
	return &singleReadStore{st: st, f: f, dim: st.Dim()}
}

// Dim implements ReadStore.
func (s *singleReadStore) Dim() int { return s.dim }

// ReadFetch implements ReadStore.
func (s *singleReadStore) ReadFetch(ids []uint64, pol ReadPolicy) ([][]float32, error) {
	if pol != nil && !pol.AllowRead(0) {
		return nil, &TierError{Op: "read", Partition: 0, Server: 0, Replicate: 1,
			Cause: fmt.Errorf("transport: every live replica vetoed by the read policy (breaker open)")}
	}
	start := time.Now()
	var (
		rows [][]float32
		err  error
	)
	if s.f != nil {
		rows, err = s.f.TryFetch(ids)
	} else {
		rows = s.st.Fetch(ids)
	}
	if pol != nil {
		pol.ObserveRead(0, time.Since(start), err)
	}
	if err != nil {
		return nil, &TierError{Op: "read", Partition: 0, Server: 0, Replicate: 1, Cause: err}
	}
	return rows, nil
}
