package core

import (
	"fmt"
	"sort"

	"bagpipe/internal/data"
)

// Partitioner assigns each example in a batch to one of p trainers.
type Partitioner interface {
	// Assign returns, for each example index, the trainer that processes
	// it. Implementations must keep the load balanced: every trainer gets
	// ⌈b/p⌉ or ⌊b/p⌋ examples (constraint (ii) of the paper's MILP).
	Assign(b *data.Batch, p int) []int
	// Name identifies the partitioner in experiment output.
	Name() string
}

// Contiguous splits the batch into p equal contiguous chunks — Bagpipe's
// default data-parallel partitioning.
type Contiguous struct{}

// Name implements Partitioner.
func (Contiguous) Name() string { return "contiguous" }

// Assign implements Partitioner.
func (Contiguous) Assign(b *data.Batch, p int) []int {
	n := b.Size()
	out := make([]int, n)
	for i := range out {
		out[i] = i * p / n
		if out[i] >= p {
			out[i] = p - 1
		}
	}
	return out
}

// RoundRobin deals examples to trainers cyclically — the "Partitioned
// Random" configuration of Figure 7.
type RoundRobin struct{}

// Name implements Partitioner.
func (RoundRobin) Name() string { return "roundrobin" }

// Assign implements Partitioner.
func (RoundRobin) Assign(b *data.Batch, p int) []int {
	out := make([]int, b.Size())
	for i := range out {
		out[i] = i % p
	}
	return out
}

// Ownership maps embedding IDs to the trainer whose partitioned cache owns
// them, the state the communication-aware partitioner minimizes against.
type Ownership map[uint64]int

// OwnerOf is the canonical hash ownership of the LRPP cache: id belongs to
// trainer id % p. It is total — every id has an owner — which is what the
// partitioned cache requires: rows that first appear beyond the lookahead
// window still land in exactly one partition.
func OwnerOf(id uint64, p int) int {
	if p <= 0 {
		panic(fmt.Sprintf("core: OwnerOf with %d trainers", p))
	}
	return int(id % uint64(p))
}

// GroupByOwner partitions the positions 0..len(ids)-1 into contiguous
// per-owner runs using a counting sort: the returned pos holds every index
// grouped by its owning partition OwnerOf(id, n), and bounds[o]..bounds[o+1]
// delimits owner o's run. The owner of each id is computed once (the modulo
// is not free at these call rates) and replayed from a scratch array on the
// placement pass. This is the one grouping primitive behind both halves of
// the system's hash sharding: the embedding server's shard-grouped
// fetch/write paths and the sharded tier client's scatter.
func GroupByOwner(ids []uint64, n int) (pos []int, bounds []int) {
	var g GroupScratch
	return g.GroupByOwner(ids, n)
}

// GroupScratch holds the counting-sort work arrays of GroupByOwner and
// GroupByKey so a caller that groups every batch (the sharded tier's
// scatter, the embedding server's shard split) reuses them instead of
// reallocating per call. The returned pos/bounds alias the scratch: they are
// valid until the next grouping call on the same scratch, and a scratch must
// not be shared by concurrent callers (pool per call site instead).
type GroupScratch struct {
	owner  []int32
	counts []int
	pos    []int
	bounds []int
}

// GroupByOwner is the scratch-reusing form of the package-level
// GroupByOwner; see that function for the grouping contract.
func (g *GroupScratch) GroupByOwner(ids []uint64, n int) (pos []int, bounds []int) {
	if n <= 0 {
		panic(fmt.Sprintf("core: GroupByOwner with %d partitions", n))
	}
	if cap(g.owner) < len(ids) {
		g.owner = make([]int32, len(ids))
	}
	owner := g.owner[:len(ids)]
	for i, id := range ids {
		owner[i] = int32(id % uint64(n))
	}
	return g.GroupByKey(owner, n)
}

// GroupByKey is the counting sort under GroupByOwner, over keys the caller
// computed: keys[i] ∈ [0, n) is position i's group. The sort is stable —
// each group's positions stay ascending — and pos/bounds follow the
// GroupByOwner contract with groups in place of owners.
func (g *GroupScratch) GroupByKey(keys []int32, n int) (pos []int, bounds []int) {
	if cap(g.pos) < len(keys) {
		g.pos = make([]int, len(keys))
	}
	if cap(g.counts) < n+1 {
		g.counts = make([]int, n+1)
		g.bounds = make([]int, n+1)
	}
	counts := g.counts[:n+1]
	clear(counts)
	for _, k := range keys {
		counts[k+1]++
	}
	for k := 0; k < n; k++ {
		counts[k+1] += counts[k]
	}
	bounds = g.bounds[:n+1]
	copy(bounds, counts)
	pos = g.pos[:len(keys)]
	for i, k := range keys {
		pos[counts[k]] = i
		counts[k]++
	}
	return pos, bounds
}

// Owner resolves id's owning trainer. IDs absent from the map — ids never
// seen in the lookahead window the map was built from — fall back to the
// hash ownership OwnerOf, so ownership is always defined and agrees with
// where the LRPP cache will actually place the row. (Before this fallback
// existed, an unseen id's ownership fell through undefined: CommAware
// charged it as a transfer against every trainer and the cost model
// disagreed with the cache's real placement.)
func (o Ownership) Owner(id uint64, p int) int {
	if t, ok := o[id]; ok {
		return t
	}
	return OwnerOf(id, p)
}

// OwnershipByHash assigns each id to hash(id) % p, the way a partitioned
// cache shards its contents.
func OwnershipByHash(ids []uint64, p int) Ownership {
	o := make(Ownership, len(ids))
	for _, id := range ids {
		o[id] = OwnerOf(id, p)
	}
	return o
}

// CommAware approximates the paper's MILP: place each example on the
// trainer that already owns the most of its embeddings, subject to the
// balance constraint. The paper solves this exactly with Gurobi and finds
// it takes ~2.36 s per 16k batch — far too slow for ~100 ms iterations —
// so Bagpipe never uses it in production; it exists to reproduce the
// Figure 7 byte counts. This greedy pass processes examples in order of
// decreasing placement benefit, which is within a few percent of the exact
// optimum on instances small enough to solve exactly (see tests).
type CommAware struct {
	Own Ownership
}

// Name implements Partitioner.
func (c *CommAware) Name() string { return "comm-aware" }

// Assign implements Partitioner.
func (c *CommAware) Assign(b *data.Batch, p int) []int {
	n := b.Size()
	capPer := (n + p - 1) / p
	// cost[i][j] = embeddings of example i NOT owned by trainer j
	type cand struct {
		example int
		best    int // best trainer
		gain    int // cost of worst placement − cost of best placement
		costs   []int
	}
	cands := make([]cand, n)
	for i, ex := range b.Examples {
		costs := make([]int, p)
		for _, id := range ex.Cat {
			owner := c.Own.Owner(id, p)
			for j := 0; j < p; j++ {
				if owner != j {
					costs[j]++
				}
			}
		}
		best, worst := 0, 0
		for j := 1; j < p; j++ {
			if costs[j] < costs[best] {
				best = j
			}
			if costs[j] > costs[worst] {
				worst = j
			}
		}
		cands[i] = cand{example: i, best: best, gain: costs[worst] - costs[best], costs: costs}
	}
	// Greedy: biggest-gain examples choose first.
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].gain > cands[b].gain })
	load := make([]int, p)
	out := make([]int, n)
	for _, cd := range cands {
		// pick the cheapest trainer with remaining capacity
		best := -1
		for j := 0; j < p; j++ {
			if load[j] >= capPer {
				continue
			}
			if best == -1 || cd.costs[j] < cd.costs[best] ||
				(cd.costs[j] == cd.costs[best] && load[j] < load[best]) {
				best = j
			}
		}
		out[cd.example] = best
		load[best]++
	}
	return out
}

// AssignmentCommCost returns the number of embedding-row transfers the
// assignment of a batch across p trainers incurs against the ownership map:
// for each example, rows not owned by its trainer must be fetched (and
// written back), counted once per (id, trainer) pair as a partitioned cache
// would batch them. Ownership of ids absent from the map resolves through
// the same hash fallback the LRPP cache uses.
func AssignmentCommCost(b *data.Batch, assign []int, p int, own Ownership) int {
	type key struct {
		id uint64
		t  int
	}
	need := make(map[key]struct{})
	for i, ex := range b.Examples {
		t := assign[i]
		for _, id := range ex.Cat {
			if own.Owner(id, p) != t {
				need[key{id, t}] = struct{}{}
			}
		}
	}
	return len(need)
}

// ExactAssign solves the balanced min-communication assignment by
// exhaustive search. Exponential; only for tiny instances in tests, where
// it certifies the greedy CommAware heuristic.
func ExactAssign(b *data.Batch, p int, own Ownership) ([]int, int) {
	n := b.Size()
	capPer := (n + p - 1) / p
	best := make([]int, n)
	cur := make([]int, n)
	load := make([]int, p)
	bestCost := -1
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			c := AssignmentCommCost(b, cur, p, own)
			if bestCost == -1 || c < bestCost {
				bestCost = c
				copy(best, cur)
			}
			return
		}
		for j := 0; j < p; j++ {
			if load[j] >= capPer {
				continue
			}
			cur[i] = j
			load[j]++
			rec(i + 1)
			load[j]--
		}
	}
	rec(0)
	return best, bestCost
}
