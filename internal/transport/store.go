package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"bagpipe/internal/core"
)

// Store is the trainer's client API to the embedding tier. It extends the
// point-to-point Transport data path (Fetch/Write/Dim/Stats/Name) with the
// tier operations every engine and the verification drivers need — state
// fingerprinting, checkpointing, and remote shutdown — so callers program
// against *the tier*, never against an individual server. The single-server
// transports (InProcess, SimNet, TCPLink) are degenerate one-server tiers;
// ShardedStore composes S of them into a real one. Engines take a Store and
// cannot tell the difference: sharding is a property of the tier client,
// not of the training logic.
type Store interface {
	Transport

	// Fingerprint returns the tier's state certificate: the wrapping sum of
	// every backend server's embed.Server.Fingerprint (per-partition
	// fingerprints from the first live holder when the tier replicates, so
	// replicated rows are counted once). The combine is order-independent
	// and the partitions are disjoint, so an S-server tier fingerprints
	// identically to the equivalent S=1 server — distributed verification
	// needs S cheap RPCs, not checkpoints.
	Fingerprint() uint64
	// Checkpoint returns the serialized state of every *live* backend
	// server, in server order; embed.RestoreTier (or, for a tier that lost
	// servers, embed.RestoreTierReplicated with the store's DeadServers)
	// rebuilds the merged logical state.
	Checkpoint() []byte
	// Shutdown asks every live remote server process behind the store to
	// stop serving once in-flight requests complete. A no-op for in-process
	// stores, whose servers the caller owns directly.
	Shutdown()
	// ServerStats returns one traffic snapshot per backend server, in
	// server order. Stats() is their field-wise sum (Stats.Add).
	ServerStats() []Stats
}

// TierError is an attributed, unrecoverable embedding-tier failure: every
// replica of one partition is dead. The errorless Store face raises it as a
// panic (a worker without its tier cannot make progress); OnLost lets a
// process intercept it first for a clean, attributed exit, and AsTierError
// recovers it from either path in tests.
type TierError struct {
	Op        string // "fetch", "write", "fingerprint", "checkpoint", "read", "resync"
	Partition int    // partition whose data became unreachable (== its owner server)
	Server    int    // last server tried for the partition
	Replicate int    // the tier's replication factor
	Cause     error  // the final per-server failure, when known
}

func (e *TierError) Error() string {
	msg := fmt.Sprintf("transport: embedding tier %s failed: partition %d unreachable (replication factor %d, last tried server %d)",
		e.Op, e.Partition, e.Replicate, e.Server)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *TierError) Unwrap() error { return e.Cause }

// ShardPanic wraps a panic raised inside one of the scatter's per-server
// goroutines before it is re-raised on the calling goroutine. Without it
// the re-panic would carry the original value but the *caller's* stack —
// the originating server and its goroutine stack, the two facts that make
// a mid-failover crash attributable, would be gone.
type ShardPanic struct {
	Server int    // server/partition index whose sub-batch RPC panicked
	Value  any    // the original panic value
	Stack  []byte // the originating goroutine's stack, captured at recover time
}

func (p *ShardPanic) Error() string {
	return fmt.Sprintf("transport: embedding tier server %d: %v\n\nserver goroutine stack:\n%s",
		p.Server, p.Value, p.Stack)
}

func (p *ShardPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// AsTierError extracts a *TierError from a recovered panic value, unwrapping
// the ShardPanic the concurrent scatter adds and any error chain around it.
func AsTierError(v any) (*TierError, bool) {
	for {
		switch x := v.(type) {
		case *TierError:
			return x, true
		case *ShardPanic:
			v = x.Value
		case error:
			var te *TierError
			if errors.As(x, &te) {
				return te, true
			}
			return nil, false
		default:
			return nil, false
		}
	}
}

// TierHealth is a snapshot of the tier client's failure-handling state, the
// failover counters -stats surfaces.
type TierHealth struct {
	Servers   int
	Replicate int
	// Failovers counts sub-batch RPCs served by a non-primary replica.
	Failovers int64
	// Retries counts per-server RPC attempts repeated after a transient
	// error, before the server was declared dead.
	Retries int64
	// Dead lists the servers this client has declared dead, ascending.
	Dead []int
	// Revived counts servers re-admitted to the live set after an
	// anti-entropy rejoin (dead → resync → live transitions completed).
	Revived int64
	// ResyncRows counts rows streamed to rejoining servers by the
	// anti-entropy transfer (recovery writes only, not forwarded live
	// writes).
	ResyncRows int64
	// RoutingEpoch is the installed routing-table epoch (0 before any
	// reshard touches the tier).
	RoutingEpoch uint64
	// ReshardParts counts new-space partitions whose reads have cut over to
	// their new owner ring (resharding progress).
	ReshardParts int64
	// ReshardRows / ReshardBytes count rows and payload bytes streamed by
	// reshard migrations through this client.
	ReshardRows  int64
	ReshardBytes int64
}

// TierOptions configures replication and failure handling for a
// ShardedStore. The zero value is the classic unreplicated tier.
type TierOptions struct {
	// Replicate is the replication factor R (default 1): each row lives on
	// its owner server plus the next R−1 servers on the core.OwnerOf ring.
	// Writes go to every live replica; reads go to the first live replica
	// in ring order (the owner, until it dies).
	Replicate int
	// Retries is the number of attempts per failed server RPC before the
	// server is declared dead (default 3). Only children implementing
	// FallibleStore participate; errorless children keep panicking.
	Retries int
	// Backoff is the sleep before the first retry, doubling per attempt
	// (default 10ms).
	Backoff time.Duration
	// Jitter maps a computed backoff to the duration actually slept.
	// The default draws uniformly from [d/2, d] (full jitter), so P
	// trainer processes retrying a flapping server spread out instead of
	// hammering it in lockstep. Tests inject an identity function to keep
	// retry timing deterministic.
	Jitter func(d time.Duration) time.Duration
	// Dead marks servers already known dead at construction (index-aligned
	// with children; a child may be nil only when Dead marks it). The
	// driver's post-chaos control store uses this to certify a tier that
	// lost a server without dialing the corpse.
	Dead []bool
	// OnFailover, if set, is called exactly once per server as it is
	// declared dead, with the final error that condemned it.
	OnFailover func(server int, cause error)
	// OnLost, if set, is called before an unrecoverable TierError is raised
	// (every replica of a partition dead) — the hook a worker process uses
	// to exit cleanly with an attributed message instead of panicking.
	OnLost func(*TierError)
	// InitialServers is the tier width S the store starts routing over
	// (default len(children)). Children at index ≥ InitialServers are spare
	// capacity for a live reshard: they start absent — unrouted, excluded
	// from health — until a routing table that references them is
	// installed. A spare child may be nil if Dial can produce it on demand.
	InitialServers int
	// Dial, if set, connects server s on demand when a routing install
	// admits an absent slot that has no store yet (the reshard grow path in
	// processes that cannot pre-dial servers that don't exist at launch).
	Dial func(server int) (Store, error)
}

// ValidateTierOptions checks opts against a tier of numChildren backend
// slots, returning the error NewTier would panic with. Exported so flag
// parsing can reject a bad -replicate/-servers combination with a clean
// message before any server dials.
func ValidateTierOptions(numChildren int, opts TierOptions) error {
	if numChildren == 0 {
		return errors.New("transport: sharded store over zero servers")
	}
	width := opts.InitialServers
	if width == 0 {
		width = numChildren
	}
	if width < 1 || width > numChildren {
		return fmt.Errorf("transport: initial tier width %d outside [1, %d]", width, numChildren)
	}
	rep := opts.Replicate
	if rep == 0 {
		rep = 1
	}
	if rep < 1 || rep > width {
		return fmt.Errorf("transport: replication factor %d outside [1, %d]: each row needs %d distinct servers in its replica ring", rep, width, rep)
	}
	if opts.Dead != nil && len(opts.Dead) != numChildren {
		return fmt.Errorf("transport: dead set lists %d servers for a %d-server tier", len(opts.Dead), numChildren)
	}
	return nil
}

const (
	defaultTierRetries = 3
	defaultTierBackoff = 10 * time.Millisecond
)

// ShardedStore is the multi-server tier client: ids are partitioned across
// S backend stores by the canonical hash ownership core.OwnerOf(id, S) —
// the same total map the LRPP cache uses for trainer ownership — and every
// Fetch/Write is split into per-partition sub-batches issued concurrently
// (scatter), with fetched rows reassembled in request order regardless of
// the order the servers reply in (gather). Like every transport, it is a
// carrier, not a semantic layer: over the same request stream an S-server
// tier lands bit-identical state to the S=1 reference, which is what lets
// -verify certify sharded runs against the unsharded baseline.
//
// With TierOptions.Replicate ≥ 2 the tier also survives server loss: every
// partition's writes go to all live servers of its replica set (owner plus
// ring successors), reads route to the first live replica, and a child RPC
// that keeps failing after bounded retries marks its server dead and
// reroutes — replicated runs remain certifiable against the baseline even
// after a mid-run kill, because the surviving replicas hold every write.
type ShardedStore struct {
	// slots holds each server's connection state — the Store plus its
	// cached FallibleStore face, asserted once so the hot path never
	// type-switches. One atomic pointer per server so a rejoin can swap in
	// a freshly dialed connection (a new incarnation) without locking the
	// data path. A slot's store is nil only for a server dead since
	// construction.
	slots     []atomic.Pointer[serverSlot]
	capacity  int // backend slot count: the maximum width a reshard can grow to
	dim       int
	replicate int
	retries   int
	backoff   time.Duration
	jitter    func(time.Duration) time.Duration

	// routing is the installed routing table — the versioned ownership map
	// every data op routes by (settled at the construction width until a
	// reshard coordinator installs successors). installMu makes an install a
	// barrier against the data plane: every Fetch/Write/ReadFetch/
	// Fingerprint/Checkpoint holds the read side for its whole run, so
	// InstallRouting returns only once no in-flight op still routes by the
	// predecessor. Lock order: installMu before stateMu/partLocks, never
	// reversed.
	routing   atomic.Pointer[RoutingTable]
	installMu sync.RWMutex
	// dialFn connects absent spare slots admitted by a routing install.
	dialFn func(int) (Store, error)
	// routeSubs fire (outside the locks) after each routing install — the
	// serve front end uses this to flush epoch-crossing cached reads.
	routeMu   sync.Mutex
	routeSubs []func(epoch uint64)

	reshardParts atomic.Int64
	reshardRows  atomic.Int64
	reshardBytes atomic.Int64
	// instant is true when every live child completes without blocking on
	// I/O (in-process servers); the scatter then runs serially — goroutine
	// fan-out over direct calls is pure overhead and allocates.
	instantChildren bool

	// Per-server revival state machine: state is srvLive/srvDead/srvResync,
	// gen is the incarnation number fencing late RPC outcomes from an old
	// connection (bumped on every rejoin). Hot paths read both with plain
	// atomic loads; every *transition* (markDead, markLive, rejoin install)
	// is serialized by stateMu — transitions are rare, and the mutex is
	// what makes "OnFailover fires exactly once with the first cause" hold
	// under racing condemnations.
	state   []atomic.Int32
	gen     []atomic.Uint64
	stateMu sync.Mutex
	causes  []error // guarded by stateMu

	// partLocks serializes anti-entropy transfer rounds against the write
	// fan-out, per partition: writePartition holds the read side, a resync
	// round holds the write side around its export→transfer→verify
	// sequence, so a snapshot can never be overwritten by a write that
	// raced between export and apply.
	partLocks []sync.RWMutex

	// rejoinMu serializes whole rejoin operations (one server resyncing at
	// a time keeps the transfer source stable and the gen bookkeeping
	// simple).
	rejoinMu sync.Mutex

	failovers  atomic.Int64
	retried    atomic.Int64
	revived    atomic.Int64
	resyncRows atomic.Int64
	onFailover func(server int, cause error)
	onLost     func(*TierError)

	// readFails counts consecutive read-path errors per server. The read
	// path tries each replica once per request (no inline retries), so it
	// spreads the write path's retry budget across requests instead: once
	// a server accumulates `retries` consecutive read errors it is
	// condemned like a write-path exhaustion. Without this, a read-only
	// tier client (the serving front end) would never learn a server died
	// — DeadServers() drives the Reviver — and would pay a failed attempt
	// on every request forever. Replicated tiers only; at R=1 there is
	// nowhere to fail over, so the read just errors attributed.
	readFails []atomic.Int32

	// reviveSubs are callbacks fired (outside stateMu) when a server is
	// re-admitted live — the serve layer uses this to nudge its circuit
	// breaker into a prompt half-open probe.
	reviveMu   sync.Mutex
	reviveSubs []func(server int)

	// scratchMu guards a pool of scatter scratches (grouping arrays plus
	// per-partition sub-batch buffers). Pooled rather than per-store because
	// several trainer goroutines issue concurrent fetches through one tier
	// client.
	scratchMu sync.Mutex
	scratch   []*shardScratch
}

// serverSlot is one server's immutable connection record; rejoins replace
// the whole slot rather than mutating it.
type serverSlot struct {
	store    Store
	fallible FallibleStore // nil for errorless stores
	reshard  ReshardStore  // nil for stores without the reshard face
}

// newServerSlot builds a slot, asserting the optional faces once so the hot
// paths never type-switch.
func newServerSlot(c Store) *serverSlot {
	sl := &serverSlot{store: c}
	if f, ok := c.(FallibleStore); ok {
		sl.fallible = f
	}
	if r, ok := c.(ReshardStore); ok {
		sl.reshard = r
	}
	return sl
}

// Per-server revival states. A resyncing server receives forwarded writes
// and anti-entropy transfers but serves no reads and counts toward no write
// quorum until markLive re-admits it. An absent server is spare capacity
// beyond the routed width: unrouted, not dead (the Reviver must not try to
// rejoin it), admitted live by the routing install that first references
// it.
const (
	srvLive int32 = iota
	srvDead
	srvResync
	srvAbsent
)

// child returns server s's current store (nil only for a
// dead-at-construction server).
func (t *ShardedStore) child(s int) Store {
	if sl := t.slots[s].Load(); sl != nil {
		return sl.store
	}
	return nil
}

// fall returns server s's current FallibleStore face, nil for errorless
// children.
func (t *ShardedStore) fall(s int) FallibleStore {
	if sl := t.slots[s].Load(); sl != nil {
		return sl.fallible
	}
	return nil
}

// reshardFace returns server s's ReshardStore face, nil when the child
// doesn't implement it.
func (t *ShardedStore) reshardFace(s int) ReshardStore {
	if sl := t.slots[s].Load(); sl != nil {
		return sl.reshard
	}
	return nil
}

// down reports whether server s is not live (dead, resyncing, or absent) —
// the read-path and quorum visibility predicate.
func (t *ShardedStore) down(s int) bool { return t.state[s].Load() != srvLive }

// allLiveIn reports whether every server of the width-w routed set is live.
func (t *ShardedStore) allLiveIn(w int) bool {
	for s := 0; s < w; s++ {
		if t.state[s].Load() != srvLive {
			return false
		}
	}
	return true
}

// shardScratch is one concurrent caller's reusable scatter state: the
// grouping arrays plus one sub-batch buffer per routing key.
type shardScratch struct {
	group   core.GroupScratch
	keys    []int32
	sub     [][]uint64
	subRows [][][]float32
}

// groupReads groups ids by the replica ring their reads route to under rt
// (RoutingTable.readKey).
func (sc *shardScratch) groupReads(rt *RoutingTable, ids []uint64) (pos, bounds []int) {
	if cap(sc.keys) < len(ids) {
		sc.keys = make([]int32, len(ids))
	}
	keys := sc.keys[:len(ids)]
	for i, id := range ids {
		keys[i] = rt.readKey(id)
	}
	n := rt.readKeys()
	sc.fit(n)
	return sc.group.GroupByKey(keys, n)
}

// groupWrites groups ids by their (old, new) partition pair under rt
// (RoutingTable.writeKeys).
func (sc *shardScratch) groupWrites(rt *RoutingTable, ids []uint64) (pos, bounds []int) {
	n := rt.writeKeys()
	sc.fit(n)
	return sc.group.GroupByOwner(ids, n)
}

// fit grows the per-key sub-batch buffers to n keys.
func (sc *shardScratch) fit(n int) {
	if len(sc.sub) < n {
		sc.sub = append(sc.sub, make([][]uint64, n-len(sc.sub))...)
		sc.subRows = append(sc.subRows, make([][][]float32, n-len(sc.subRows))...)
	}
}

// getScratch pops (or creates) a scatter scratch.
func (t *ShardedStore) getScratch() *shardScratch {
	t.scratchMu.Lock()
	defer t.scratchMu.Unlock()
	if n := len(t.scratch); n > 0 {
		sc := t.scratch[n-1]
		t.scratch[n-1] = nil
		t.scratch = t.scratch[:n-1]
		return sc
	}
	return new(shardScratch)
}

// putScratch returns a scratch to the pool. Fetch/Write call it via defer,
// so the sub-batch buffers come back even when a child's RPC panics
// mid-gather (forEachPartition re-raises child panics on the calling
// goroutine) — a failed shard call must not leak the pooled buffers.
func (t *ShardedStore) putScratch(sc *shardScratch) {
	t.scratchMu.Lock()
	t.scratch = append(t.scratch, sc)
	t.scratchMu.Unlock()
}

// instantStore is implemented by transports whose calls complete inline
// without waiting on a network (InProcess, and tiers composed of them).
type instantStore interface{ instant() bool }

// NewShardedStore builds the classic unreplicated tier client over children,
// one per embedding server, in server order. All children must serve the
// same row width. A single-child store is a valid (degenerate) tier; callers
// that want to skip the fan-out bookkeeping entirely for S=1 may use the
// child directly, as cmd/bagpipe does.
func NewShardedStore(children []Store) *ShardedStore {
	return NewTier(children, TierOptions{})
}

// NewTier builds the tier client over children with explicit replication
// and failure-handling options. Construction errors are programming errors
// and panic, matching NewShardedStore. Children beyond
// opts.InitialServers are spare reshard capacity and start absent (a spare
// child may be nil when opts.Dial can connect it later); within the initial
// width a nil child requires opts.Dead to mark it.
func NewTier(children []Store, opts TierOptions) *ShardedStore {
	nslots := len(children)
	if err := ValidateTierOptions(nslots, opts); err != nil {
		panic(err.Error())
	}
	width := opts.InitialServers
	if width == 0 {
		width = nslots
	}
	if opts.Replicate == 0 {
		opts.Replicate = 1
	}
	if opts.Retries <= 0 {
		opts.Retries = defaultTierRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = defaultTierBackoff
	}
	if opts.Dead == nil {
		opts.Dead = make([]bool, nslots)
	}
	dim, instant, anyLive := 0, true, false
	for i, c := range children {
		if c == nil {
			if i < width && !opts.Dead[i] {
				panic(fmt.Sprintf("transport: live tier server %d has no store", i))
			}
			if i >= width && opts.Dial == nil {
				panic(fmt.Sprintf("transport: spare tier server %d has no store and no dialer", i))
			}
			continue
		}
		if !anyLive {
			dim, anyLive = c.Dim(), true
		} else if c.Dim() != dim {
			panic(fmt.Sprintf("transport: sharded store server %d serves dim %d, earlier servers serve %d", i, c.Dim(), dim))
		}
		if is, ok := c.(instantStore); !ok || !is.instant() {
			instant = false
		}
	}
	if !anyLive {
		panic("transport: every server of the tier is dead at construction")
	}
	t := &ShardedStore{
		slots:           make([]atomic.Pointer[serverSlot], nslots),
		capacity:        nslots,
		dim:             dim,
		replicate:       opts.Replicate,
		retries:         opts.Retries,
		backoff:         opts.Backoff,
		jitter:          opts.Jitter,
		instantChildren: instant,
		dialFn:          opts.Dial,
		state:           make([]atomic.Int32, nslots),
		gen:             make([]atomic.Uint64, nslots),
		readFails:       make([]atomic.Int32, nslots),
		causes:          make([]error, nslots),
		partLocks:       make([]sync.RWMutex, nslots),
		onFailover:      opts.OnFailover,
		onLost:          opts.OnLost,
	}
	if t.jitter == nil {
		t.jitter = defaultJitter
	}
	t.routing.Store(settledRouting(0, width))
	for i, c := range children {
		if c != nil {
			t.slots[i].Store(newServerSlot(c))
		}
		switch {
		case i >= width:
			t.state[i].Store(srvAbsent)
		case opts.Dead[i]:
			t.state[i].Store(srvDead)
		}
	}
	return t
}

// defaultJitter draws the slept backoff uniformly from [d/2, d] ("equal
// jitter"): bounded above by the computed exponential step, but decorrelated
// across the P trainer clients that would otherwise retry a flapping server
// in lockstep.
func defaultJitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rand.Int64N(int64(d-half)+1))
}

// sleepBackoff counts and performs the a'th retry sleep (exponential base
// backoff through the jitter source).
func (t *ShardedStore) sleepBackoff(a int) {
	t.retried.Add(1)
	time.Sleep(t.jitter(t.backoff << a))
}

// instant implements instantStore: a tier of instant children is itself
// instant, so nested sharded stores keep the serial fast path.
func (t *ShardedStore) instant() bool { return t.instantChildren }

// Name implements Store.
func (t *ShardedStore) Name() string {
	for s := 0; s < t.capacity; s++ {
		c := t.child(s)
		if c == nil || t.state[s].Load() != srvLive {
			continue
		}
		return fmt.Sprintf("sharded-%d/%s", t.Servers(), c.Name())
	}
	return fmt.Sprintf("sharded-%d/dead", t.Servers())
}

// Dim implements Store.
func (t *ShardedStore) Dim() int { return t.dim }

// Servers returns the tier width S the store currently routes over: the
// settled width, or the authoritative (old) width mid-reshard.
func (t *ShardedStore) Servers() int { return t.routing.Load().Width() }

// Capacity returns the backend slot count — the maximum width a reshard can
// grow this store to.
func (t *ShardedStore) Capacity() int { return t.capacity }

// Replicate returns the tier's replication factor.
func (t *ShardedStore) Replicate() int { return t.replicate }

// Routing returns the installed routing table.
func (t *ShardedStore) Routing() *RoutingTable { return t.routing.Load() }

// DeadServers returns the indices of routed servers this client has
// declared dead, ascending. A resyncing server is no longer dead (its
// rejoin is in flight) but not yet live; DownServers includes it. Absent
// spares and servers outside the routed slot range are neither.
func (t *ShardedStore) DeadServers() []int {
	var dead []int
	for s := 0; s < t.routing.Load().MaxServer(); s++ {
		if t.state[s].Load() == srvDead {
			dead = append(dead, s)
		}
	}
	return dead
}

// DownServers returns the indices of routed servers not currently serving
// reads (dead or mid-resync), ascending — the set a consistent
// certification must exclude.
func (t *ShardedStore) DownServers() []int {
	var down []int
	for s := 0; s < t.routing.Load().MaxServer(); s++ {
		if st := t.state[s].Load(); st != srvLive && st != srvAbsent {
			down = append(down, s)
		}
	}
	return down
}

// TierHealth returns the failover counters (-stats plumbing).
func (t *ShardedStore) TierHealth() TierHealth {
	return TierHealth{
		Servers:      t.Servers(),
		Replicate:    t.replicate,
		Failovers:    t.failovers.Load(),
		Retries:      t.retried.Load(),
		Dead:         t.DeadServers(),
		Revived:      t.revived.Load(),
		ResyncRows:   t.resyncRows.Load(),
		RoutingEpoch: t.routing.Load().Epoch,
		ReshardParts: t.reshardParts.Load(),
		ReshardRows:  t.reshardRows.Load(),
		ReshardBytes: t.reshardBytes.Load(),
	}
}

// routeIn returns the server currently serving reads for the ring based at
// base in a width-width partition space: the first live server of the
// replica set in ring order, or -1 when the whole set is down. Resyncing
// servers are skipped — they must not serve reads until their state
// verifies.
func (t *ShardedStore) routeIn(base, width int) int {
	depth := t.replicate
	if depth > width {
		depth = width
	}
	for k := 0; k < depth; k++ {
		if s := (base + k) % width; t.state[s].Load() == srvLive {
			return s
		}
	}
	return -1
}

// markDead declares server s dead with the given cause. Idempotent under
// arbitrary contention: stateMu serializes the transition, so exactly one
// caller wins, records the first cause, and fires OnFailover (after
// releasing the lock — the callback may call back into the store).
func (t *ShardedStore) markDead(s int, cause error) {
	t.stateMu.Lock()
	if t.state[s].Load() == srvDead {
		t.stateMu.Unlock()
		return
	}
	t.state[s].Store(srvDead)
	t.causes[s] = cause
	t.stateMu.Unlock()
	if t.onFailover != nil {
		t.onFailover(s, cause)
	}
}

// markDeadIfGen is markDead fenced by incarnation: it condemns server s only
// if s still runs generation g. A slow RPC that started against the old
// incarnation and failed after the server rejoined must not kill the new
// incarnation — the failure belongs to a connection that no longer exists.
func (t *ShardedStore) markDeadIfGen(s int, g uint64, cause error) {
	t.stateMu.Lock()
	if t.gen[s].Load() != g || t.state[s].Load() == srvDead {
		t.stateMu.Unlock()
		return
	}
	t.state[s].Store(srvDead)
	t.causes[s] = cause
	t.stateMu.Unlock()
	if t.onFailover != nil {
		t.onFailover(s, cause)
	}
}

// markLive re-admits server s (generation g) to the live set after its
// resync verified: the inverse of markDead. Only the resyncing incarnation
// itself can come live — a concurrent markDeadIfGen wins by flipping the
// state back to dead first, and a newer generation means this rejoin was
// superseded. Revival subscribers fire outside stateMu.
func (t *ShardedStore) markLive(s int, g uint64) bool {
	t.stateMu.Lock()
	if t.gen[s].Load() != g || t.state[s].Load() != srvResync {
		t.stateMu.Unlock()
		return false
	}
	t.state[s].Store(srvLive)
	t.causes[s] = nil
	// The new incarnation starts with a clean read-failure streak — the
	// old connection's errors must not count against it.
	t.readFails[s].Store(0)
	t.stateMu.Unlock()
	t.revived.Add(1)
	t.reviveMu.Lock()
	subs := append([]func(server int){}, t.reviveSubs...)
	t.reviveMu.Unlock()
	for _, fn := range subs {
		fn(s)
	}
	return true
}

// SubscribeRevived registers fn to be called (on the reviving goroutine,
// outside the store's locks) whenever a server is re-admitted live.
func (t *ShardedStore) SubscribeRevived(fn func(server int)) {
	t.reviveMu.Lock()
	t.reviveSubs = append(t.reviveSubs, fn)
	t.reviveMu.Unlock()
}

// deadCause returns the recorded error that condemned server s, if any.
func (t *ShardedStore) deadCause(s int) error {
	t.stateMu.Lock()
	defer t.stateMu.Unlock()
	return t.causes[s]
}

// lost raises an unrecoverable tier failure: OnLost first (a worker's clean
// exit hook), then panic — the errorless Store face has no other way out.
func (t *ShardedStore) lost(e *TierError) {
	if e.Cause == nil && e.Server >= 0 && e.Server < len(t.causes) {
		e.Cause = t.deadCause(e.Server)
	}
	if t.onLost != nil {
		t.onLost(e)
	}
	panic(e)
}

// serialScatter reports whether a scatter over bounds should run inline on
// the calling goroutine: instant (in-process) children never block on a
// link, so there is nothing to overlap, and a single active routing key has
// no fan-out to do. Fetch/Write check this *before* building the per-key
// closure forEachPartition needs — the closure escapes into goroutines and
// would heap-allocate once per call, the exact per-batch cost the pooled
// scatter exists to avoid on the hot in-process path.
func (t *ShardedStore) serialScatter(bounds []int) bool {
	if t.instantChildren {
		return true
	}
	active := 0
	for k := 0; k+1 < len(bounds); k++ {
		if bounds[k] != bounds[k+1] {
			active++
		}
	}
	return active <= 1
}

// forEachPartition runs fn for every routing key with a non-empty run in
// bounds, concurrently. Sub-batches wait on their server's link, not on
// CPU, so overlapping them is what makes an S-server tier S links wide
// instead of one link S times as long (each backend is its own NIC in the
// paper's trainer-node/server-node topology); serial scatters take the
// inline loops in Fetch/Write instead (see serialScatter). A panic in a
// child RPC is wrapped in a ShardPanic — the key's partition (part maps a
// key to it; its primary server) plus the goroutine's stack, captured at
// recover time — and re-raised on the calling goroutine once every
// in-flight sub-batch finishes, so the caller's defers (scratch return,
// result-buffer recycling) still run and the crash stays attributable to a
// server.
func (t *ShardedStore) forEachPartition(bounds []int, part func(key int) int, fn func(key int)) {
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked *ShardPanic
	)
	for key := 0; key+1 < len(bounds); key++ {
		if bounds[key] == bounds[key+1] {
			continue
		}
		wg.Add(1)
		go func(key int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					sp, ok := p.(*ShardPanic)
					if !ok {
						sp = &ShardPanic{Server: part(key), Value: p, Stack: debug.Stack()}
					}
					panicMu.Lock()
					if panicked == nil {
						panicked = sp
					}
					panicMu.Unlock()
				}
			}()
			fn(key)
		}(key)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// Fetch implements Store: one sub-batch per owning partition, issued
// concurrently, rows delivered in request order no matter which order the
// servers reply in. The scatter buffers are pooled and returned via defer —
// including when a shard's RPC panics mid-gather, in which case the result
// header and every row already gathered into it go back to their pools too
// (each failover exercise would otherwise leak pool capacity).
//
// The whole op runs under the routing install barrier (installMu read
// side); a server rejecting a sub-batch as stale-routed aborts the op,
// which adopts the newer table outside the barrier and reissues — rows
// gathered by the aborted pass are recycled first (PutN skips the nils of
// partitions that never delivered).
func (t *ShardedStore) Fetch(ids []uint64) [][]float32 {
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
		stale := t.fetchOnce(sc, ids, out)
		if stale == nil {
			break
		}
		Rows(t.dim).PutN(out)
		clear(out)
		if attempt >= staleRetryLimit {
			t.lost(&TierError{Op: "fetch", Partition: -1, Server: stale.Server, Replicate: t.replicate, Cause: stale})
		}
		t.adoptRouting(stale)
	}
	completed = true
	return out
}

// fetchOnce runs one fetch pass under the routing install barrier,
// reporting the stale-routing fence that aborted it, if any. The deferred
// unlock keeps a tier-lost panic from leaking the barrier's read side. Ids
// group by the replica ring their reads route to under the installed table
// — old-space for pending and dual partitions, new-space once a partition's
// reads cut over; in a settled table, the owner id % S.
func (t *ShardedStore) fetchOnce(sc *shardScratch, ids []uint64, out [][]float32) *StaleRoutingError {
	t.installMu.RLock()
	defer t.installMu.RUnlock()
	rt := t.routing.Load()
	pos, bounds := sc.groupReads(rt, ids)
	if t.serialScatter(bounds) {
		for key := 0; key+1 < len(bounds); key++ {
			if bounds[key] != bounds[key+1] {
				if se := t.fetchPartition(sc, rt, key, ids, pos, bounds, out); se != nil {
					return se
				}
			}
		}
		return nil
	}
	var (
		staleMu sync.Mutex
		stale   *StaleRoutingError
	)
	t.forEachPartition(bounds, func(key int) int { base, _ := rt.readRing(key); return base }, func(key int) {
		if se := t.fetchPartition(sc, rt, key, ids, pos, bounds, out); se != nil {
			staleMu.Lock()
			if stale == nil {
				stale = se
			}
			staleMu.Unlock()
		}
	})
	return stale
}

// fetchPartition issues one read ring's fetch sub-batch — to the ring's
// primary server, failing over along the ring as servers die — and gathers
// the rows into the request-order result. A stale-routing rejection aborts
// the sub-batch for the caller to re-route; it is a fence, not a failure,
// so it never counts against the server.
func (t *ShardedStore) fetchPartition(sc *shardScratch, rt *RoutingTable, key int, ids []uint64, pos, bounds []int, out [][]float32) *StaleRoutingError {
	run := pos[bounds[key]:bounds[key+1]]
	sub := sc.sub[key][:0]
	for _, p := range run {
		sub = append(sub, ids[p])
	}
	sc.sub[key] = sub
	base, width := rt.readRing(key)
	for {
		s := t.routeIn(base, width)
		if s < 0 {
			t.lost(&TierError{Op: "fetch", Partition: base, Server: (base + t.replicate - 1) % width, Replicate: t.replicate})
		}
		rows, err := t.tryFetch(s, sub)
		if se := asStaleRouting(err); se != nil {
			se.Server = s
			return se
		}
		if err != nil {
			continue // s is dead now; route to the next live replica
		}
		if s != base {
			t.failovers.Add(1)
		}
		for i, p := range run {
			out[p] = rows[i]
		}
		// The child's result header is dead now that its rows moved into
		// out; recycle it.
		PutRowSlice(rows)
		return nil
	}
}

// tryFetch issues one sub-batch fetch to server s with bounded retry; on
// exhaustion the server is declared dead and the last error returned.
// Errorless children cannot report failure, so they bypass the retry loop
// (their failures stay panics). The generation is captured *before* the
// slot: if the server rejoins mid-call, the exhausted condemnation is
// fenced off by markDeadIfGen rather than killing the new incarnation.
// A stale-routing rejection short-circuits: no retries, no condemnation —
// the routing layer heals it.
func (t *ShardedStore) tryFetch(s int, sub []uint64) ([][]float32, error) {
	g := t.gen[s].Load()
	f := t.fall(s)
	if f == nil {
		return t.child(s).Fetch(sub), nil
	}
	var lastErr error
	for a := 0; ; a++ {
		rows, err := f.TryFetch(sub)
		if err == nil {
			return rows, nil
		}
		if asStaleRouting(err) != nil {
			return nil, err
		}
		lastErr = err
		if a+1 >= t.retries {
			break
		}
		t.sleepBackoff(a)
	}
	t.markDeadIfGen(s, g, lastErr)
	return nil, lastErr
}

// Write implements Store: the scatter half of Fetch, one concurrent
// sub-batch of (id, row) pairs per owning partition, written to every live
// server of the partition's replica set. It returns once every live replica
// acked its sub-batch — the write-durability contract the ℒ-window
// retirement depends on becomes "acked by all live replicas", which is what
// keeps a post-failover read (served by a replica) bit-identical to the
// read the dead primary would have served.
func (t *ShardedStore) Write(ids []uint64, rows [][]float32) {
	if len(ids) != len(rows) {
		panic("transport: Write ids/rows length mismatch")
	}
	sc := t.getScratch()
	defer t.putScratch(sc)
	completed := false
	defer func() {
		if completed {
			return
		}
		// A replica write panicked mid-scatter: drop the caller's row
		// references parked in the pooled sub-batch buffers, or the scratch
		// pins them until its next use.
		for i := range sc.subRows {
			s := sc.subRows[i]
			clear(s[:cap(s)])
		}
	}()
	for attempt := 0; ; attempt++ {
		stale := t.writeOnce(sc, ids, rows)
		if stale == nil {
			break
		}
		// A reissue after adopting rewrites sub-batches that already
		// landed; writes are idempotent (Set overwrites with the same
		// bytes), so the only cost is the duplicate RPC.
		if attempt >= staleRetryLimit {
			t.lost(&TierError{Op: "write", Partition: -1, Server: stale.Server, Replicate: t.replicate, Cause: stale})
		}
		t.adoptRouting(stale)
	}
	completed = true
}

// writeOnce runs one write pass under the routing install barrier (see
// fetchOnce). Ids group by their (old partition, new partition) pair under
// the installed table; in a settled table, by the owner id % S.
func (t *ShardedStore) writeOnce(sc *shardScratch, ids []uint64, rows [][]float32) *StaleRoutingError {
	t.installMu.RLock()
	defer t.installMu.RUnlock()
	rt := t.routing.Load()
	pos, bounds := sc.groupWrites(rt, ids)
	if t.serialScatter(bounds) {
		for key := 0; key+1 < len(bounds); key++ {
			if bounds[key] != bounds[key+1] {
				if se := t.writePartition(sc, rt, key, ids, pos, bounds, rows); se != nil {
					return se
				}
			}
		}
		return nil
	}
	var (
		staleMu sync.Mutex
		stale   *StaleRoutingError
	)
	t.forEachPartition(bounds, func(key int) int { q, _ := rt.writeParts(key); return q }, func(key int) {
		if se := t.writePartition(sc, rt, key, ids, pos, bounds, rows); se != nil {
			staleMu.Lock()
			if stale == nil {
				stale = se
			}
			staleMu.Unlock()
		}
	})
	return stale
}

// writePartition issues one (old partition q, new partition pn) write
// sub-batch to every live server of q's old-space replica ring — the
// authoritative copy until the tier settles. Dead replicas are skipped
// (their state is recovered from the survivors at merge time); a resyncing
// replica gets the write *forwarded* — applied so no update is lost during
// the anti-entropy window, but not counted toward the ack quorum; a failing
// live replica is declared dead and does not fail the write as long as at
// least one live replica acked. The partition's resync lock is held shared
// for the whole fan-out (and released via defer, so the lost() panic path
// cannot leak it): a transfer round's export→apply→verify cannot interleave
// with a half-applied write.
//
// Once pn's dual-write window is open the sub-batch also goes, best-effort,
// to each live new-ring member not already in the old ring. Best-effort is
// enough for the dual leg: a member that misses the write (marked dead
// here) is either re-streamed or abandoned by the coordinator, and the
// migration verify rounds compare digests before any read routes to it.
func (t *ShardedStore) writePartition(sc *shardScratch, rt *RoutingTable, key int, ids []uint64, pos, bounds []int, rows [][]float32) *StaleRoutingError {
	run := pos[bounds[key]:bounds[key+1]]
	sub, subRows := sc.sub[key][:0], sc.subRows[key][:0]
	for _, p := range run {
		sub = append(sub, ids[p])
		subRows = append(subRows, rows[p])
	}
	sc.sub[key], sc.subRows[key] = sub, subRows
	q, pn := rt.writeParts(key)
	lk := &t.partLocks[q]
	lk.RLock()
	defer lk.RUnlock()
	// Drop the row references so the pooled scratch doesn't pin the
	// caller's buffers until the next write; deferred so the stale-abort
	// returns clear too.
	defer clear(subRows)
	depth := min(t.replicate, rt.OldS)
	acked, lastSrv := 0, q
	var lastErr error
	for k := 0; k < depth; k++ {
		s := (q + k) % rt.OldS
		switch t.state[s].Load() {
		case srvDead:
			lastSrv = s
		case srvResync:
			if se := t.tryWriteOnce(s, sub, subRows); se != nil {
				return se
			}
		default: // srvLive
			if err := t.tryWrite(s, sub, subRows); err != nil {
				if se := asStaleRouting(err); se != nil {
					se.Server = s
					return se
				}
				lastSrv, lastErr = s, err
				continue
			}
			acked++
		}
	}
	if acked == 0 {
		t.lost(&TierError{Op: "write", Partition: q, Server: lastSrv, Replicate: t.replicate, Cause: lastErr})
	}
	if !rt.dualWrite(pn) {
		return nil
	}
	for k := 0; k < min(t.replicate, rt.NewS); k++ {
		s := (pn + k) % rt.NewS
		inOld := s < rt.OldS && (s-q+rt.OldS)%rt.OldS < depth
		if inOld || t.state[s].Load() != srvLive {
			continue
		}
		if se := t.tryWriteOnce(s, sub, subRows); se != nil {
			return se
		}
	}
	return nil
}

// tryWrite is tryFetch's write-side twin (stale routing short-circuits the
// retry loop the same way).
func (t *ShardedStore) tryWrite(s int, sub []uint64, subRows [][]float32) error {
	g := t.gen[s].Load()
	f := t.fall(s)
	if f == nil {
		t.child(s).Write(sub, subRows)
		return nil
	}
	var lastErr error
	for a := 0; ; a++ {
		err := f.TryWrite(sub, subRows)
		if err == nil {
			return nil
		}
		if asStaleRouting(err) != nil {
			return err
		}
		lastErr = err
		if a+1 >= t.retries {
			break
		}
		t.sleepBackoff(a)
	}
	t.markDeadIfGen(s, g, lastErr)
	return lastErr
}

// tryWriteOnce applies one write sub-batch to a server outside the ack
// quorum: a resyncing server (the write-forwarding half of the anti-entropy
// window) or a new-ring member on the dual-write leg. Both are best-effort
// lanes repaired by verify rounds, so it makes one attempt: a hard failure
// condemns the server (fenced by generation) and the write proceeds on the
// quorum — these writes never count toward it, so they cannot mask a loss
// of every *verified* replica. A stale-routing fence is returned, attributed
// to s, for the op to re-route (the server is not condemned for it).
func (t *ShardedStore) tryWriteOnce(s int, sub []uint64, subRows [][]float32) *StaleRoutingError {
	g := t.gen[s].Load()
	f := t.fall(s)
	if f == nil {
		t.child(s).Write(sub, subRows)
		return nil
	}
	err := f.TryWrite(sub, subRows)
	if se := asStaleRouting(err); se != nil {
		se.Server = s
		return se
	}
	if err != nil {
		t.markDeadIfGen(s, g, err)
	}
	return nil
}

// Stats implements Store: the field-wise sum over the tier. Fetches/Writes
// count per-server sub-batch RPCs — the frames the fan-out actually put on
// the wire, including replica writes — so an S-way scatter of one logical
// fetch reports up to S calls, and SimulatedDelay sums the per-link
// serialization charges even though concurrent sub-batches overlap in
// wall-clock time.
func (t *ShardedStore) Stats() Stats {
	var sum Stats
	for s := 0; s < t.capacity; s++ {
		c := t.child(s)
		if c == nil {
			continue
		}
		sum.Add(c.Stats())
	}
	return sum
}

// ServerStats implements Store: per-server snapshots, flattened in server
// order (a nested sharded child contributes its own per-server entries; a
// construction-dead child contributes one zero entry).
func (t *ShardedStore) ServerStats() []Stats {
	out := make([]Stats, 0, t.capacity)
	for s := 0; s < t.capacity; s++ {
		c := t.child(s)
		if c == nil {
			out = append(out, Stats{})
			continue
		}
		out = append(out, c.ServerStats()...)
	}
	return out
}

// partFingerprinter is the errorless partition-scoped certificate — every
// real transport implements it alongside FallibleStore.
type partFingerprinter interface {
	FingerprintPart(part, of int) uint64
}

// Fingerprint implements Store: the order-independent combine of the
// per-server certificates (see Store.Fingerprint for why a wrapping sum of
// disjoint partitions equals the merged state's fingerprint). The
// per-server RPCs fan out concurrently — the call completes when the
// slowest server answers, which keeps it an honest one-round-trip probe
// (the driver's -auto-lookahead pings time it to size the ℒ window). A
// replicated (or bereaved) tier sums partition-scoped fingerprints from
// each partition's first live holder instead, so replicated rows are
// counted exactly once and dead servers not at all.
// Mid-reshard the certificate is taken in the *old* partition space
// (RoutingTable.Width): dual writes keep it complete there until the
// settle, and the per-partition path is immune to the streamed-in alien
// rows a migration parks on its targets (FingerprintPart(p, W) filters to
// exactly p's id set). The whole-server fast path is gated on a settled
// table for the same reason: mid-shrink an old server holds rows of
// partitions it doesn't own in the old space, and summing whole servers
// would count them twice.
func (t *ShardedStore) Fingerprint() uint64 {
	t.installMu.RLock()
	defer t.installMu.RUnlock()
	rt := t.routing.Load()
	W := rt.Width()
	if rt.Settled() && t.replicate == 1 && t.allLiveIn(W) {
		fps := make([]uint64, W)
		var wg sync.WaitGroup
		for s := 0; s < W; s++ {
			wg.Add(1)
			go func(s int, c Store) {
				defer wg.Done()
				fps[s] = c.Fingerprint()
			}(s, t.child(s))
		}
		wg.Wait()
		var sum uint64
		for _, fp := range fps {
			sum += fp
		}
		return sum
	}
	fps := make([]uint64, W)
	var wg sync.WaitGroup
	for p := 0; p < W; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			fps[p] = t.fingerprintPartition(p, W)
		}(p)
	}
	wg.Wait()
	var sum uint64
	for _, fp := range fps {
		sum += fp
	}
	return sum
}

// fingerprintPartition fetches partition part's certificate (in a width-W
// partition space) from its first live holder, failing over like the data
// path.
func (t *ShardedStore) fingerprintPartition(part, W int) uint64 {
	for {
		s := t.routeIn(part, W)
		if s < 0 {
			t.lost(&TierError{Op: "fingerprint", Partition: part, Server: (part + t.replicate - 1) % W, Replicate: t.replicate})
		}
		if t.fall(s) != nil {
			fp, err := t.tryFingerprintPart(s, part, W)
			if err != nil {
				continue
			}
			return fp
		}
		c := t.child(s)
		pf, ok := c.(partFingerprinter)
		if !ok {
			panic(fmt.Sprintf("transport: tier server %d (%T) cannot serve partition fingerprints", s, c))
		}
		return pf.FingerprintPart(part, W)
	}
}

// tryFingerprintPart is tryFetch's certificate-side twin.
func (t *ShardedStore) tryFingerprintPart(s, part, of int) (uint64, error) {
	g := t.gen[s].Load()
	f := t.fall(s)
	var lastErr error
	for a := 0; ; a++ {
		fp, err := f.TryFingerprintPart(part, of)
		if err == nil {
			return fp, nil
		}
		lastErr = err
		if a+1 >= t.retries {
			break
		}
		t.sleepBackoff(a)
	}
	t.markDeadIfGen(s, g, lastErr)
	return 0, lastErr
}

// Checkpoint implements Store: every live server's checkpoint concatenated
// in server order, the layout embed.RestoreTierReplicated consumes together
// with DeadServers (for an unreplicated, fully-live tier this is exactly
// the classic embed.RestoreTier layout). Like Fingerprint, the per-server
// RPCs fan out concurrently — these move full server states, so the tier
// checkpoint costs the slowest server, not the sum. A server lost *during*
// checkpointing is excluded like any other dead server — its partitions'
// writes live on their surviving replicas — unless some partition then has
// no live replica at all, which is unrecoverable.
func (t *ShardedStore) Checkpoint() []byte {
	// Like Fingerprint, checkpoints are taken in the authoritative
	// partition space under the install barrier: the old width mid-reshard
	// (where dual writes keep every server complete), the settled width
	// otherwise.
	t.installMu.RLock()
	defer t.installMu.RUnlock()
	S := t.routing.Load().Width()
	// Snapshot the down set once: servers changing state mid-checkpoint
	// (a rejoin completing, a mid-pull death) must not leave the
	// concatenation half from one membership view and half from another.
	down := make([]bool, S)
	for s := 0; s < S; s++ {
		down[s] = t.down(s)
	}
	parts := make([][]byte, S)
	var wg sync.WaitGroup
	for s := 0; s < S; s++ {
		if down[s] {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			parts[s] = t.checkpointServer(s)
		}(s)
	}
	wg.Wait()
	// A server whose pull failed was declared dead by checkpointServer and
	// contributed no bytes; fold it into the snapshot before the coverage
	// check.
	for s := 0; s < S; s++ {
		if !down[s] && parts[s] == nil {
			down[s] = true
		}
	}
	for part := 0; part < S; part++ {
		covered := false
		for k := 0; k < t.replicate; k++ {
			if !down[(part+k)%S] {
				covered = true
				break
			}
		}
		if !covered {
			t.lost(&TierError{Op: "checkpoint", Partition: part, Server: (part + t.replicate - 1) % S, Replicate: t.replicate})
		}
	}
	var out []byte
	for s, p := range parts {
		if down[s] {
			continue
		}
		out = append(out, p...)
	}
	return out
}

// checkpointServer pulls one server's checkpoint with bounded retry; on
// exhaustion the server is declared dead and nil returned.
func (t *ShardedStore) checkpointServer(s int) []byte {
	g := t.gen[s].Load()
	f := t.fall(s)
	if f == nil {
		return t.child(s).Checkpoint()
	}
	var lastErr error
	for a := 0; ; a++ {
		b, err := f.TryCheckpoint()
		if err == nil {
			return b
		}
		lastErr = err
		if a+1 >= t.retries {
			break
		}
		t.sleepBackoff(a)
	}
	t.markDeadIfGen(s, g, lastErr)
	return nil
}

// Shutdown implements Store, skipping dead and absent servers (there is no
// process to ask). Resyncing servers are asked too — a rejoiner's process
// is alive even though it isn't serving reads yet — and so are servers a
// shrink routed away from (their processes outlive the migration until
// someone stops them). A child whose process is already gone may panic on
// the shutdown call; that is swallowed, since shutdown is best-effort by
// contract.
func (t *ShardedStore) Shutdown() {
	for s := 0; s < t.capacity; s++ {
		c := t.child(s)
		if st := t.state[s].Load(); c == nil || st == srvDead || st == srvAbsent {
			continue
		}
		func() {
			defer func() { _ = recover() }()
			c.Shutdown()
		}()
	}
}
