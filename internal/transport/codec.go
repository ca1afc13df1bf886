package transport

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"bagpipe/internal/core"
	"bagpipe/internal/data"
)

// This file is the wire codec for everything that crosses a real network:
// the trainer-mesh payloads (replica pushes, delayed-sync flushes, oracle
// plans, collective contributions) and the framing shared with the
// trainer↔embedding-server link. Encoding is explicit little-endian — no
// gob/json/reflection on the hot path — and deterministic: map-typed fields
// are written in sorted key order, so the same payload always produces the
// same bytes (the codec round-trip tests rely on it).
//
// Frame layout, shared by the mesh and the link:
//
//	u32  frame length (bytes after this field)
//	...  frame body (first body byte is a payload-type or op tag)
//
// All integers are little-endian; floats are IEEE-754 bit patterns.

// Wire payload types. These are the messages the LRPP engine exchanges over
// a Mesh; internal/train uses them as its payload structs for every mesh
// implementation, so in-process, simulated, and TCP runs move the identical
// values (TCP additionally through EncodePayload/DecodePayload).
type (
	// ReplicaMsg carries an owner's per-iteration row snapshots to a
	// non-owner whose examples read them (LRPP logical replication). With
	// F16 set the rows cross the wire as binary16 (2 bytes/element); the
	// sender must have rounded the values through QuantizeF16 first, so the
	// encoding itself is lossless and every fabric moves identical values.
	ReplicaMsg struct {
		Iter int
		F16  bool
		Rows map[uint64][]float32
	}

	// Contrib is one example's gradient for one embedding row, tagged with
	// the example's index in the full batch so owners can re-fold
	// contributions in exact batch order regardless of arrival order.
	Contrib struct {
		Example int
		Grad    []float32
	}

	// SyncMsg is one batched delayed-sync flush: one sender's gradient
	// contributions for one iteration, grouped per owned id. It travels
	// only as an element of a SyncBatchMsg. With F16 set
	// (-sync-compress-grad) the gradients cross the wire as binary16; as
	// with quantized replicas, the sender must have rounded the values
	// through f16 first — the lossy step happens at the sender (where the
	// error-feedback residual is kept), never in the encoding.
	SyncMsg struct {
		Iter    int
		F16     bool
		Entries map[uint64][]Contrib
	}

	// SyncBatchMsg coalesces every delayed-sync flush one sender owes one
	// owner at a flush pass — typically iteration x's critical
	// contributions plus iteration x−lag's deferred ones — into a single
	// frame: one per-row entry table per iteration instead of one frame
	// per (iteration, criticality).
	SyncBatchMsg struct {
		Flushes []SyncMsg
	}

	// PlanMsg distributes one trainer's oracle plan from the rank-0 process
	// (which hosts the Oracle Cacher) to its peer. Only the Decision fields
	// a remote trainer consumes travel (Iter, Assign, NeededNext, Batch),
	// and of the batch only the destination's assigned examples, indexed —
	// the decoded Batch keeps its full length with empty slots elsewhere,
	// so batch-order semantics (loss scaling, contribution folding by
	// absolute example index) are preserved at a fraction of the bytes.
	PlanMsg struct {
		Plan *core.TrainerPlan
	}

	// CollMsg is one collective-communication step: a rank's contribution
	// to (or the root's result of) all-reduce call number Seq. Exactly one
	// of F32/F64 is non-nil. The rooted (unfused) strategy sends one
	// CollMsg per dense parameter per step.
	CollMsg struct {
		Seq uint64
		F32 []float32
		F64 []float64
	}

	// FusedCollMsg is one *fused* collective step: every dense-parameter
	// gradient segment plus the float64 loss term of one iteration packed
	// into a single frame behind a length-prefixed segment table, so a
	// whole all-reduce round costs one frame instead of one per parameter.
	// Origin is the contributing rank — under the ring strategy frames are
	// forwarded peer to peer, so the mesh-level sender (MeshMsg.From) is
	// the previous hop, not the rank whose gradients these are.
	FusedCollMsg struct {
		Seq    uint64
		Origin int
		Segs   [][]float32
		Loss   []float64
	}

	// RawMsg is an opaque byte payload (conformance tests, future control
	// traffic).
	RawMsg []byte
)

// Payload type tags (first byte of an encoded payload).
const (
	tagReplica byte = 1 + iota
	// Tag 2 is retired (a bare SyncMsg frame; flushes travel in a
	// SyncBatchMsg) and stays unused so the tags after it keep their values.
	_
	tagPlan
	tagColl
	tagRaw
	tagReplicaF16
	tagSyncBatch
	tagFusedColl
)

// EncodePayload encodes one of the wire payload types, tag first.
// Unknown payload types panic: only codec-known messages may be handed to a
// networked mesh, and catching that at the first Send beats a silent drop.
func EncodePayload(p any) []byte {
	return appendPayload(make([]byte, 0, 64), p)
}

// appendPayload is EncodePayload into a caller-supplied buffer, so framing
// code can encode directly after its header without a second copy.
func appendPayload(b []byte, p any) []byte {
	switch m := p.(type) {
	case ReplicaMsg:
		if m.F16 {
			b = append(b, tagReplicaF16)
		} else {
			b = append(b, tagReplica)
		}
		b = putU64(b, uint64(m.Iter))
		b = putU32(b, uint32(len(m.Rows)))
		for _, id := range sortedIDKeys(m.Rows) {
			b = putU64(b, id)
			if m.F16 {
				b = putF16s(b, m.Rows[id])
			} else {
				b = putF32s(b, m.Rows[id])
			}
		}
	case SyncBatchMsg:
		b = append(b, tagSyncBatch)
		b = putU32(b, uint32(len(m.Flushes)))
		for _, f := range m.Flushes {
			b = putSyncBody(b, f)
		}
	case PlanMsg:
		b = append(b, tagPlan)
		b = putPlan(b, m.Plan)
	case CollMsg:
		b = append(b, tagColl)
		b = putU64(b, m.Seq)
		if m.F64 != nil {
			b = append(b, 1)
			b = putF64s(b, m.F64)
		} else {
			b = append(b, 0)
			b = putF32s(b, m.F32)
		}
	case FusedCollMsg:
		b = append(b, tagFusedColl)
		b = putU64(b, m.Seq)
		b = putU32(b, uint32(m.Origin))
		b = putU32(b, uint32(len(m.Segs)))
		for _, seg := range m.Segs {
			b = putF32s(b, seg)
		}
		b = putF64s(b, m.Loss)
	case RawMsg:
		b = append(b, tagRaw)
		b = append(b, m...)
	default:
		panic(fmt.Sprintf("transport: cannot encode payload type %T", p))
	}
	return b
}

// DecodePayload is the inverse of EncodePayload.
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("transport: empty payload")
	}
	r := &wireReader{b: b[1:]}
	var out any
	switch b[0] {
	case tagReplica, tagReplicaF16:
		m := ReplicaMsg{Iter: int(r.u64()), F16: b[0] == tagReplicaF16}
		n := r.count(8)
		// The map and rows come from the pooled allocator, mirroring the
		// in-process path where the sender builds them there; the LRPP
		// receiver releases both once the rows are consumed.
		m.Rows = GetRowMap()
		elem := 4
		if m.F16 {
			elem = 2
		}
		var arena *RowArena
		for i := 0; i < n; i++ {
			id := r.u64()
			ne := r.count(elem)
			if ne == 0 || r.err != nil {
				m.Rows[id] = nil
				continue
			}
			if arena == nil || arena.dim != ne {
				arena = Rows(ne)
			}
			row := arena.Get()
			reg := r.take(ne, elem)
			if m.F16 {
				for k := range row {
					row[k] = F32FromF16(binary.LittleEndian.Uint16(reg[2*k:]))
				}
			} else {
				for k := range row {
					row[k] = math.Float32frombits(binary.LittleEndian.Uint32(reg[4*k:]))
				}
			}
			m.Rows[id] = row
		}
		out = m
	case tagSyncBatch:
		n := r.count(12)
		m := SyncBatchMsg{Flushes: make([]SyncMsg, 0, n)}
		for i := 0; i < n; i++ {
			m.Flushes = append(m.Flushes, r.sync())
		}
		out = m
	case tagPlan:
		out = PlanMsg{Plan: r.plan()}
	case tagColl:
		m := CollMsg{Seq: r.u64()}
		if r.u8() == 1 {
			m.F64 = r.f64s()
		} else {
			m.F32 = r.f32s()
		}
		out = m
	case tagFusedColl:
		m := FusedCollMsg{Seq: r.u64(), Origin: int(r.u32())}
		n := r.count(4)
		m.Segs = make([][]float32, 0, n)
		for i := 0; i < n; i++ {
			m.Segs = append(m.Segs, r.f32s())
		}
		m.Loss = r.f64s()
		out = m
	case tagRaw:
		raw := make(RawMsg, len(b)-1)
		copy(raw, b[1:])
		return raw, nil
	default:
		return nil, fmt.Errorf("transport: unknown payload tag %d", b[0])
	}
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) != 0 {
		return nil, fmt.Errorf("transport: %d trailing bytes after payload tag %d", len(r.b), b[0])
	}
	return out, nil
}

// putSyncBody writes one iteration's flush: one SyncMsg element of a
// SyncBatchMsg.
func putSyncBody(b []byte, m SyncMsg) []byte {
	b = putU64(b, uint64(m.Iter))
	if m.F16 {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = putU32(b, uint32(len(m.Entries)))
	for _, id := range sortedIDKeys(m.Entries) {
		b = putU64(b, id)
		es := m.Entries[id]
		b = putU32(b, uint32(len(es)))
		for _, e := range es {
			b = putU64(b, uint64(e.Example))
			if m.F16 {
				b = putF16s(b, e.Grad)
			} else {
				b = putF32s(b, e.Grad)
			}
		}
	}
	return b
}

// sync reads one iteration's flush (the inverse of putSyncBody).
func (r *wireReader) sync() SyncMsg {
	m := SyncMsg{Iter: int(r.u64()), F16: r.u8() == 1}
	n := r.count(8)
	m.Entries = make(map[uint64][]Contrib, n)
	for i := 0; i < n; i++ {
		id := r.u64()
		ne := r.count(8)
		es := make([]Contrib, 0, ne)
		for j := 0; j < ne; j++ {
			e := Contrib{Example: int(r.u64())}
			if m.F16 {
				e.Grad = r.f16s()
			} else {
				e.Grad = r.f32s()
			}
			es = append(es, e)
		}
		m.Entries[id] = es
	}
	return m
}

// putPlan writes a TrainerPlan plus the Decision subset remote trainers
// consume (Iter, Batch, Assign, NeededNext).
func putPlan(b []byte, pl *core.TrainerPlan) []byte {
	b = putU64(b, uint64(pl.Trainer))
	b = putU64s(b, pl.Prefetch)
	b = putU32(b, uint32(len(pl.OwnedTTL)))
	for _, id := range sortedIDKeys(pl.OwnedTTL) {
		b = putU64(b, id)
		b = putU64(b, uint64(pl.OwnedTTL[id]))
	}
	b = putU64s(b, pl.Expiring)
	b = putU32(b, uint32(len(pl.Users)))
	for _, id := range sortedIDKeys(pl.Users) {
		b = putU64(b, id)
		b = putInts(b, pl.Users[id])
	}
	b = putU32(b, uint32(len(pl.ReplicaOut)))
	for _, t := range sortedIntKeys(pl.ReplicaOut) {
		b = putU64(b, uint64(t))
		b = putU64s(b, pl.ReplicaOut[t])
	}
	b = putU32(b, uint32(len(pl.Remote)))
	for _, id := range sortedIDKeys(pl.Remote) {
		b = putU64(b, id)
		b = putU64(b, uint64(pl.Remote[id]))
	}
	b = putInts(b, pl.ReplicaFrom)

	d := pl.Dec
	b = putU64(b, uint64(d.Iter))
	b = putInts(b, d.Assign)
	needed := make([]uint64, 0, len(d.NeededNext))
	for id, v := range d.NeededNext {
		if v {
			needed = append(needed, id)
		}
	}
	sort.Slice(needed, func(i, j int) bool { return needed[i] < needed[j] })
	b = putU64s(b, needed)
	// Only the destination trainer's assigned examples travel (indexed, so
	// batch-order semantics — loss scaling by the full size, contribution
	// folding by absolute example index — are preserved); shipping the
	// whole batch to every peer would make plans P× redundant.
	b = putU64(b, uint64(d.Batch.Index))
	b = putU32(b, uint32(len(d.Batch.Examples)))
	mine := 0
	for i := range d.Batch.Examples {
		if d.Assign[i] == pl.Trainer {
			mine++
		}
	}
	b = putU32(b, uint32(mine))
	for i, ex := range d.Batch.Examples {
		if d.Assign[i] != pl.Trainer {
			continue
		}
		b = putU32(b, uint32(i))
		b = putF32s(b, ex.Dense)
		b = putU64s(b, ex.Cat)
		b = putF32(b, ex.Label)
	}
	return b
}

func (r *wireReader) plan() *core.TrainerPlan {
	pl := &core.TrainerPlan{Trainer: int(r.u64())}
	pl.Prefetch = r.u64s()
	n := r.count(16)
	pl.OwnedTTL = make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		id := r.u64()
		pl.OwnedTTL[id] = int(r.u64())
	}
	pl.Expiring = r.u64s()
	n = r.count(12)
	pl.Users = make(map[uint64][]int, n)
	for i := 0; i < n; i++ {
		id := r.u64()
		pl.Users[id] = r.ints()
	}
	n = r.count(12)
	pl.ReplicaOut = make(map[int][]uint64, n)
	for i := 0; i < n; i++ {
		t := int(r.u64())
		pl.ReplicaOut[t] = r.u64s()
	}
	n = r.count(16)
	pl.Remote = make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		id := r.u64()
		pl.Remote[id] = int(r.u64())
	}
	pl.ReplicaFrom = r.ints()

	d := &core.Decision{Iter: int(r.u64())}
	d.Assign = r.ints()
	d.NeededNext = make(map[uint64]bool)
	for _, id := range r.u64s() {
		d.NeededNext[id] = true
	}
	d.Batch = &data.Batch{Index: int(r.u64())}
	// Sparse batch slots carry no bytes, so the batch size cannot be
	// bounded by what is left of the frame. Assign holds one entry per
	// example and was, so it bounds the allocation.
	full := r.count(0)
	if r.err == nil && full != len(d.Assign) {
		r.err = fmt.Errorf("transport: plan batch of %d examples carries %d assignments", full, len(d.Assign))
	}
	if r.err != nil {
		return pl
	}
	d.Batch.Examples = make([]data.Example, full)
	n = r.count(4)
	for i := 0; i < n; i++ {
		idx := int(r.u32())
		if idx >= full {
			r.fail()
			return pl
		}
		ex := data.Example{Dense: r.f32s(), Cat: r.u64s()}
		ex.Label = r.f32()
		d.Batch.Examples[idx] = ex
	}
	pl.Dec = d
	return pl
}

// --- primitive writers (append-style, little-endian) ---

func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putF32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// grow appends n zero bytes and returns the buffer plus the write offset —
// the bulk writers fill the region directly, skipping per-element appends.
func grow(b []byte, n int) ([]byte, int) {
	off := len(b)
	return append(b, make([]byte, n)...), off
}

func putF32s(b []byte, xs []float32) []byte {
	b = putU32(b, uint32(len(xs)))
	return putF32sRaw(b, xs)
}

// putF32sRaw appends xs' elements without a count prefix — for callers that
// frame a whole matrix of known shape behind a single count.
func putF32sRaw(b []byte, xs []float32) []byte {
	b, off := grow(b, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[off+4*i:], math.Float32bits(x))
	}
	return b
}

// putF16s writes a float32 slice as binary16 bit patterns (the quantized
// replica encoding). Values must already be f16-representable (the sender
// quantized them), so the round trip is exact.
func putF16s(b []byte, xs []float32) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 2*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint16(b[off+2*i:], F16FromF32(x))
	}
	return b
}

func putF64s(b []byte, xs []float64) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[off+8*i:], math.Float64bits(x))
	}
	return b
}

func putU64s(b []byte, xs []uint64) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[off+8*i:], x)
	}
	return b
}

// putInts writes a non-negative int slice (ranks, assignments) as u32s.
func putInts(b []byte, xs []int) []byte {
	b = putU32(b, uint32(len(xs)))
	b, off := grow(b, 4*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint32(b[off+4*i:], uint32(x))
	}
	return b
}

// --- primitive reader ---

// wireReader consumes an encoded payload body. The first decode error
// sticks and every later read returns a zero value without consuming bytes
// — load-bearing, not just convenient: count()'s allocation guard assumes a
// poisoned reader can never hand a decoder a garbage element count — so
// decoders need no per-field checks and the caller inspects err once at the
// end.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("transport: truncated payload")
	}
}

func (r *wireReader) u8() byte {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wireReader) f32() float32 { return math.Float32frombits(r.u32()) }

// count reads a u32 element count and sanity-checks it against the bytes
// remaining (each element needs at least minElem bytes), so a corrupt frame
// cannot drive a huge allocation. The bulk slice readers below lean on the
// same guarantee from the other side: a non-zero count with minElem = the
// element width proves the elements' bytes are all present, so they carve
// the region off in one bounds check and decode without per-element error
// handling — the codec is the distributed hot path, and per-element checks
// were measurable in profiles.
func (r *wireReader) count(minElem int) int {
	n := int(r.u32())
	if r.err == nil && minElem > 0 && n > len(r.b)/minElem {
		r.fail()
		return 0
	}
	return n
}

// take returns the next n*elem bytes as one region (count(elem) has already
// proven they exist) and advances the reader past them.
func (r *wireReader) take(n, elem int) []byte {
	b := r.b[:n*elem]
	r.b = r.b[n*elem:]
	return b
}

func (r *wireReader) f32s() []float32 {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	b := r.take(n, 4)
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

// f32sInto decodes a count-prefixed float32 vector into the caller's dst
// (a pooled row), failing the reader unless the count is exactly len(dst).
func (r *wireReader) f32sInto(dst []float32) bool {
	n := r.count(4)
	if r.err != nil || n != len(dst) {
		r.fail()
		return false
	}
	b := r.take(n, 4)
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return true
}

func (r *wireReader) f16s() []float32 {
	n := r.count(2)
	if n == 0 {
		return nil
	}
	b := r.take(n, 2)
	xs := make([]float32, n)
	for i := range xs {
		xs[i] = F32FromF16(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return xs
}

func (r *wireReader) f64s() []float64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	b := r.take(n, 8)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return xs
}

func (r *wireReader) u64s() []uint64 {
	n := r.count(8)
	if n == 0 {
		return nil
	}
	b := r.take(n, 8)
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return xs
}

func (r *wireReader) ints() []int {
	n := r.count(4)
	if n == 0 {
		return nil
	}
	b := r.take(n, 4)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return xs
}

// --- sorted-key helpers (deterministic map encoding) ---

func sortedIDKeys[V any](m map[uint64]V) []uint64 {
	ks := make([]uint64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func sortedIntKeys[V any](m map[int]V) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
