package train

import (
	"fmt"
	"sync"

	"bagpipe/internal/collective"
	"bagpipe/internal/transport"
)

// This file is the mesh-based side of the collective layer: the reducer a
// multi-process LRPP worker steps its dense gradients and loss through
// (collective.Collective's mesh implementation). One FusedCollMsg packs
// every dense-parameter segment plus the loss term behind a segment table;
// every rank sends its frame to rank 0, which folds all P contributions per
// segment in rank order from zero — the summation order of the in-process
// collective.Group, so worker runs stay bit-identical to single-process
// ones — and broadcasts the result: 2(P−1) frames per iteration.
//
// Every call is tagged with a sequence number (all ranks make the same
// sequence of collective calls, as with MPI communicators), so arbitrarily
// reordered delivery cannot mismatch phases. The trainer's receiver
// goroutine feeds inbound frames in through deliver.

// meshColl implements collective.Collective over a mesh endpoint.
type meshColl struct {
	rank, n int
	ep      transport.Endpoint
	eng     *lrppEngine // per-class traffic accounting

	mu      sync.Mutex
	cond    *sync.Cond
	seq     uint64
	contrib map[uint64]map[int]transport.FusedCollMsg // root: seq → sender → contribution
	result  map[uint64]transport.FusedCollMsg         // non-root: seq → root's result
}

func newMeshColl(rank, n int, ep transport.Endpoint, eng *lrppEngine) *meshColl {
	c := &meshColl{
		rank: rank, n: n, ep: ep, eng: eng,
		contrib: make(map[uint64]map[int]transport.FusedCollMsg),
		result:  make(map[uint64]transport.FusedCollMsg),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// send is the one place collective frames leave this rank: it charges the
// engine's collective-class traffic counters alongside the mesh send.
func (c *meshColl) send(to int, bytes int64, payload any) {
	c.ep.Send(to, bytes, payload)
	if c.eng != nil {
		c.eng.countSend(classColl, bytes)
	}
}

// deliver routes one inbound fused frame from mesh rank from (called
// from the trainer's mesh receiver goroutine): a peer's contribution at
// rank 0, the root's result everywhere else.
func (c *meshColl) deliver(from int, m transport.FusedCollMsg) {
	c.mu.Lock()
	if c.rank == 0 {
		byFrom := c.contrib[m.Seq]
		if byFrom == nil {
			byFrom = make(map[int]transport.FusedCollMsg, c.n-1)
			c.contrib[m.Seq] = byFrom
		}
		byFrom[from] = m
	} else {
		c.result[m.Seq] = m
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// gather blocks until all n−1 peer contributions for seq arrived
// (rank 0 only) and removes them.
func (c *meshColl) gather(seq uint64) map[int]transport.FusedCollMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.contrib[seq]) < c.n-1 {
		c.cond.Wait()
	}
	byFrom := c.contrib[seq]
	delete(c.contrib, seq)
	return byFrom
}

// await blocks until the root's result for seq arrived (non-root
// only).
func (c *meshColl) await(seq uint64) transport.FusedCollMsg {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if m, ok := c.result[seq]; ok {
			delete(c.result, seq)
			return m
		}
		c.cond.Wait()
	}
}

func (c *meshColl) nextSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.seq
	c.seq++
	return s
}

// snapshotFused copies segs and loss into a frame: the caller's buffers are
// live (reused across iterations, mutated by the fold), and in-process
// meshes deliver payloads by reference.
func snapshotFused(seq uint64, segs [][]float32, loss []float64) transport.FusedCollMsg {
	m := transport.FusedCollMsg{Seq: seq,
		Segs: make([][]float32, len(segs)), Loss: append([]float64(nil), loss...)}
	for i, s := range segs {
		m.Segs[i] = append([]float32(nil), s...)
	}
	return m
}

// checkFused panics unless m's shape matches the local call: a mismatch
// means the ranks' collective call sequences diverged, which can only end
// in silent corruption. from is the rank the frame came from.
func checkFused(m transport.FusedCollMsg, from int, segs [][]float32, loss []float64) {
	if len(m.Segs) != len(segs) || len(m.Loss) != len(loss) {
		panic(fmt.Sprintf("train: collective %d: rank %d sent %d segments / %d loss terms, want %d / %d",
			m.Seq, from, len(m.Segs), len(m.Loss), len(segs), len(loss)))
	}
	for i, s := range segs {
		if len(m.Segs[i]) != len(s) {
			panic(fmt.Sprintf("train: collective %d: rank %d segment %d carried %d floats, want %d",
				m.Seq, from, i, len(m.Segs[i]), len(s)))
		}
	}
}

// FusedAllReduce implements collective.Collective: one call reduces every
// dense-parameter segment plus the loss vector across the mesh. Every rank
// sends its frame to rank 0; rank 0 folds all P frames in rank order from
// zero — the bit-identity contract — and sends the result back to every
// peer, which blocks for it.
func (c *meshColl) FusedAllReduce(rank int, segs [][]float32, loss []float64) {
	if c.n == 1 {
		return
	}
	seq := c.nextSeq()
	bytes := fusedCollBytes(segs, len(loss))
	if c.rank != 0 {
		c.send(0, bytes, snapshotFused(seq, segs, loss))
		m := c.await(seq)
		checkFused(m, 0, segs, loss)
		for i := range segs {
			copy(segs[i], m.Segs[i])
		}
		copy(loss, m.Loss)
		return
	}
	byFrom := c.gather(seq)
	// Fold in rank order from zero: segs/loss already hold rank 0's terms.
	// Whole segments at a time through the vector kernels — the same
	// left-to-right per-element summation as the scalar loop.
	for r := 1; r < c.n; r++ {
		m, ok := byFrom[r]
		if !ok {
			panic(fmt.Sprintf("train: collective %d: rank %d never contributed", seq, r))
		}
		checkFused(m, r, segs, loss)
		for i, x := range segs {
			collective.AddF32(x, m.Segs[i])
		}
		collective.AddF64(loss, m.Loss)
	}
	out := snapshotFused(seq, segs, loss)
	for r := 1; r < c.n; r++ {
		c.send(r, bytes, out)
	}
}

// fusedCollBytes is the declared wire size of one fused collective frame:
// seq + segment table + loss vector.
func fusedCollBytes(segs [][]float32, lossLen int) int64 {
	b := int64(8 + 4 + 4 + 8*lossLen)
	for _, s := range segs {
		b += 4 + 4*int64(len(s))
	}
	return b
}
