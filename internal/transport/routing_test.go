package transport

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"bagpipe/internal/embed"
)

// remoteChild is an in-process child that reports itself as a remote link,
// so a tier built over it takes the concurrent scatter instead of the
// serial in-process loop.
type remoteChild struct{ *InProcess }

func (remoteChild) instant() bool { return false }

// routingCases are the tables every characterization tier is driven under:
// each unsettled shape of a from→to migration, and the settled table that
// ends it.
func routingCases(from, to int) []struct {
	name string
	rt   *RoutingTable
} {
	states := func(pick func(p int) PartState) []PartState {
		st := make([]PartState, to)
		for p := range st {
			st[p] = pick(p)
		}
		return st
	}
	return []struct {
		name string
		rt   *RoutingTable
	}{
		{"pending", &RoutingTable{Epoch: 1, OldS: from, NewS: to, State: states(func(int) PartState { return PartPending })}},
		{"mixed", &RoutingTable{Epoch: 1, OldS: from, NewS: to, State: states(func(p int) PartState {
			if p%2 == 0 {
				return PartDual
			}
			return PartMoved
		})}},
		{"moved", &RoutingTable{Epoch: 1, OldS: from, NewS: to, State: states(func(int) PartState { return PartMoved })}},
		{"settled", &RoutingTable{Epoch: 1, OldS: to, NewS: to}},
	}
}

// routedStats is one server's traffic delta under an op: sub-batch calls
// and rows.
type routedStats struct{ calls, rows int64 }

// expectedReads is the read-routing spec with every server live: an id is
// served by the base of its read ring — the new-space ring once its new
// partition moved, the old-space ring otherwise — and each ring gets one
// sub-batch.
func expectedReads(rt *RoutingTable, capacity int, ids []uint64) []routedStats {
	type ring struct{ base, width int }
	rings := map[ring]int64{}
	for _, id := range ids {
		pn := int(id % uint64(rt.NewS))
		r := ring{int(id % uint64(rt.OldS)), rt.OldS}
		if rt.State == nil || rt.State[pn] == PartMoved {
			r = ring{pn, rt.NewS}
		}
		rings[r]++
	}
	want := make([]routedStats, capacity)
	for r, n := range rings {
		want[r.base].calls++
		want[r.base].rows += n
	}
	return want
}

// expectedWrites is the write-routing spec with every server live: ids
// group by (old partition, new partition); each group is written to its
// old-space replica ring, and — once the new partition's dual-write window
// is open — also to the new-space ring members outside the old ring.
func expectedWrites(rt *RoutingTable, R, capacity int, ids []uint64) []routedStats {
	type pair struct{ q, pn int }
	groups := map[pair]int64{}
	for _, id := range ids {
		groups[pair{int(id % uint64(rt.OldS)), int(id % uint64(rt.NewS))}]++
	}
	want := make([]routedStats, capacity)
	for g, n := range groups {
		old := map[int]bool{}
		for k := 0; k < min(R, rt.OldS); k++ {
			s := (g.q + k) % rt.OldS
			old[s] = true
			want[s].calls++
			want[s].rows += n
		}
		if rt.State == nil || rt.State[g.pn] == PartPending {
			continue
		}
		for k := 0; k < min(R, rt.NewS); k++ {
			if s := (g.pn + k) % rt.NewS; !old[s] {
				want[s].calls++
				want[s].rows += n
			}
		}
	}
	return want
}

// statsDelta runs op and returns each server's (calls, rows) delta, using
// the fetch or the write counters.
func statsDelta(st *ShardedStore, write bool, op func()) []routedStats {
	before := st.ServerStats()
	op()
	after := st.ServerStats()
	out := make([]routedStats, len(after))
	for s := range after {
		if write {
			out[s] = routedStats{after[s].Writes - before[s].Writes, after[s].RowsWritten - before[s].RowsWritten}
		} else {
			out[s] = routedStats{after[s].Fetches - before[s].Fetches, after[s].RowsFetched - before[s].RowsFetched}
		}
	}
	return out
}

func sameRows(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("%s: row %d = %v, want %v", what, i, got[i], want[i])
			}
		}
	}
}

// TestTierRoutingCharacterization pins every data-plane routing decision of
// the tier client under each routing-table shape: for a grow 2→4 and a
// shrink 4→2 at R∈{1,2}, over serial (in-process) and concurrent scatters,
// with a pending, a mixed dual/moved, an all-moved and a settled table
// installed, which server slots receive Fetch, ReadFetch and Write
// sub-batches (per-server call and row deltas against the routing spec),
// and that fetched rows — before and after the write — match a one-server
// reference bit for bit.
func TestTierRoutingCharacterization(t *testing.T) {
	ids := make([]uint64, 40)
	for i := range ids {
		ids[i] = uint64(i*7+3) % 40 // a permutation of 0..39: every (old, new) pair, out of order
	}
	for _, sh := range []struct{ from, to int }{{2, 4}, {4, 2}} {
		for _, R := range []int{1, 2} {
			for _, tc := range routingCases(sh.from, sh.to) {
				rt := tc.rt
				for _, remote := range []bool{false, true} {
					t.Run(fmt.Sprintf("%d_to_%d/R%d/%s/remote=%v", sh.from, sh.to, R, tc.name, remote), func(t *testing.T) {
						capacity := max(sh.from, sh.to)
						children := make([]Store, capacity)
						for i := range children {
							ip := NewInProcess(embed.NewServer(3, 4, 11, 0.1))
							children[i] = ip
							if remote {
								children[i] = remoteChild{ip}
							}
						}
						st := NewTier(children, TierOptions{Replicate: R, InitialServers: sh.from})
						if st.instant() == remote {
							t.Fatalf("tier instant()=%v over remote=%v children", st.instant(), remote)
						}
						for s := sh.from; s < sh.to; s++ {
							if err := st.EnsureServer(s); err != nil {
								t.Fatal(err)
							}
						}
						if err := st.PushRouting(rt); err != nil {
							t.Fatal(err)
						}
						ref := NewInProcess(embed.NewServer(3, 4, 11, 0.1))

						var rows [][]float32
						got := statsDelta(st, false, func() { rows = st.Fetch(ids) })
						if want := expectedReads(rt, capacity, ids); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("Fetch routed %v, want %v", got, want)
						}
						sameRows(t, "Fetch", rows, ref.Fetch(ids))

						got = statsDelta(st, false, func() {
							var err error
							if rows, err = st.ReadFetch(ids, nil); err != nil {
								t.Fatal(err)
							}
						})
						if want := expectedReads(rt, capacity, ids); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("ReadFetch routed %v, want %v", got, want)
						}
						sameRows(t, "ReadFetch", rows, ref.Fetch(ids))

						upd := make([][]float32, len(ids))
						for i, id := range ids {
							upd[i] = []float32{float32(id), 1, 2, 3}
						}
						got = statsDelta(st, true, func() { st.Write(ids, upd) })
						if want := expectedWrites(rt, R, capacity, ids); fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("Write routed %v, want %v", got, want)
						}
						ref.Write(ids, upd)
						sameRows(t, "Fetch after Write", st.Fetch(ids), ref.Fetch(ids))
					})
				}
			}
		}
	}
}

// TestDecodeRoutingRejectsMalformed: a routing table arriving off a socket
// (a server's install frame, a client's stale-routing response) must decode
// to an error, never a panic — every truncation of an encoded mid-reshard
// table, a state count larger than the bytes present, trailing bytes and an
// unknown settled flag all fail cleanly.
func TestDecodeRoutingRejectsMalformed(t *testing.T) {
	rt := &RoutingTable{Epoch: 7, OldS: 2, NewS: 4, State: []PartState{PartPending, PartDual, PartMoved, PartDual}}
	enc := encodeRouting(nil, rt)
	if got, err := decodeRouting(enc); err != nil || !bytes.Equal(encodeRouting(nil, got), enc) {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	for n := 0; n < len(enc); n++ {
		if _, err := decodeRouting(enc[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(enc))
		}
	}
	huge := append([]byte(nil), enc...)
	huge[12] = 0xe8 // NewS = 1000 with only 4 state bytes present
	huge[13] = 0x03
	if _, err := decodeRouting(huge); err == nil {
		t.Fatal("oversized state count decoded")
	}
	if _, err := decodeRouting(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
	settled := encodeRouting(nil, settledRouting(3, 2))
	settled[len(settled)-1] = 2
	if _, err := decodeRouting(settled); err == nil {
		t.Fatal("unknown settled flag decoded")
	}
}

// TestStaleRoutingOverCapacityFailsAttributed: a fence rejection can carry
// a well-formed table over more servers than the client has slots for. It
// is nothing to adopt, like an undecodable one: the op retries up to
// staleRetryLimit and then fails with an attributed TierError, instead of
// the install panicking on the table's width.
func TestStaleRoutingOverCapacityFailsAttributed(t *testing.T) {
	srvs := []*embed.Server{embed.NewServer(1, 4, 7, 0.05), embed.NewServer(1, 4, 7, 0.05)}
	wide := settledRouting(1, 8)
	srvs[0].InstallRouting(wide.Epoch, wide)
	st := NewShardedStore([]Store{NewInProcess(srvs[0]), NewInProcess(srvs[1])})
	defer func() {
		r := recover()
		te, ok := r.(*TierError)
		if !ok {
			t.Fatalf("fetch ended with %v (%T), want an attributed *TierError", r, r)
		}
		if te.Server != 0 || asStaleRouting(te.Cause) == nil {
			t.Fatalf("tier error %v: want server 0 attributed with the stale-routing cause", te)
		}
	}()
	st.Fetch([]uint64{0, 2})
	t.Fatal("fetch under an over-capacity routing table succeeded")
}

// FuzzDecodeRouting: decodeRouting never panics on arbitrary bytes, and any
// table it accepts re-encodes to exactly the bytes it came from (servers
// keep the encoded form and hand it back in fence rejections).
func FuzzDecodeRouting(f *testing.F) {
	f.Add(encodeRouting(nil, settledRouting(0, 2)))
	f.Add(encodeRouting(nil, &RoutingTable{Epoch: 5, OldS: 2, NewS: 4, State: []PartState{PartDual, PartMoved, PartPending, PartMoved}}))
	f.Add(encodeRouting(nil, &RoutingTable{Epoch: 9, OldS: 4, NewS: 2, State: []PartState{PartMoved, PartDual}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		rt, err := decodeRouting(b)
		if err != nil {
			return
		}
		if enc := encodeRouting(nil, rt); !bytes.Equal(enc, b) {
			t.Fatalf("accepted %x re-encodes to %x", b, enc)
		}
	})
}
