package transport

import (
	"fmt"
	"sync"
)

// Hot-path buffer pooling. The steady-state LRPP iteration moves the same
// three shapes of memory every batch — fixed-width embedding rows
// ([]float32 of the tier's dim), row-slice headers ([][]float32 holding a
// fetch result), and id→row maps (replica payloads) — and before this file
// existed each one was a fresh allocation, making GC the dominant avoidable
// cost on the P=4 TCP profile. The pools here are deliberately *not*
// sync.Pool: putting a slice header into a sync.Pool boxes it into an
// interface (one allocation per Put), which would defeat the 0 allocs/op
// goal outright. A mutex-guarded free list is allocation-free on both Get
// and Put, and the mutex gives the happens-before edge the race detector
// needs when rows migrate between trainer goroutines.
//
// Ownership discipline (see ARCHITECTURE.md "Memory discipline"):
//
//   - Rows(dim).Get hands out a buffer with undefined contents; the caller
//     must overwrite every element before reading.
//   - Put transfers ownership back. Returning is always optional — a row
//     that simply goes out of scope is collected normally — but a row must
//     never be Put while any other reference to it is live.
//   - Row-slice headers are zeroed on Put so a recycled header can never
//     resurrect rows the previous owner released.

// RowArena recycles fixed-width row buffers. All rows in one arena have the
// same length; Get/Put of mismatched widths panic, which catches ownership
// bugs (a sub-slice of a larger buffer, say) at the pool boundary instead
// of as silent aliasing.
type RowArena struct {
	dim  int
	mu   sync.Mutex
	free [][]float32
}

// NewRowArena returns an empty arena for rows of width dim.
func NewRowArena(dim int) *RowArena {
	if dim <= 0 {
		panic(fmt.Sprintf("transport: row arena dim %d", dim))
	}
	return &RowArena{dim: dim}
}

// rowArenas is the per-width registry behind Rows. Transports and trainers
// that share a tier share one arena, so a row fetched by one component can
// be released by whichever component consumes it last.
var rowArenas sync.Map // int → *RowArena

// Rows returns the process-wide shared arena for rows of width dim.
func Rows(dim int) *RowArena {
	if a := registeredRows(dim); a != nil {
		return a
	}
	a, _ := rowArenas.LoadOrStore(dim, NewRowArena(dim))
	return a.(*RowArena)
}

// registeredRows returns the shared arena for rows of width dim if some
// component already registered one, else nil. Decoders of wire frames use
// it instead of Rows: a width read off a frame must never add an arena to
// the process-wide registry, or a corrupt or hostile peer could grow it
// without bound.
func registeredRows(dim int) *RowArena {
	if a, ok := rowArenas.Load(dim); ok {
		return a.(*RowArena)
	}
	return nil
}

// Dim returns the row width this arena serves.
func (a *RowArena) Dim() int { return a.dim }

// Get returns a row of length Dim with undefined contents. The caller owns
// it until (optionally) returning it with Put.
func (a *RowArena) Get() []float32 {
	a.mu.Lock()
	if n := len(a.free); n > 0 {
		row := a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		a.mu.Unlock()
		return row
	}
	a.mu.Unlock()
	return make([]float32, a.dim)
}

// GetN fills every slot of dst with a row from the arena under a single
// lock acquisition.
func (a *RowArena) GetN(dst [][]float32) {
	a.mu.Lock()
	n := len(a.free)
	for i := range dst {
		if n > 0 {
			n--
			dst[i] = a.free[n]
			a.free[n] = nil
		} else {
			dst[i] = make([]float32, a.dim)
		}
	}
	a.free = a.free[:n]
	a.mu.Unlock()
}

// Put returns row to the arena. The caller must hold the only live
// reference. Panics if the row's length is not the arena width — a
// foreign or sub-sliced buffer must never enter the free list.
func (a *RowArena) Put(row []float32) {
	if len(row) != a.dim {
		panic(fmt.Sprintf("transport: put row len %d into dim-%d arena", len(row), a.dim))
	}
	a.mu.Lock()
	a.free = append(a.free, row)
	a.mu.Unlock()
}

// PutN returns every non-nil row in rows under a single lock acquisition.
// The slice itself is left untouched (callers usually recycle or truncate
// it separately).
func (a *RowArena) PutN(rows [][]float32) {
	a.mu.Lock()
	for _, row := range rows {
		if row == nil {
			continue
		}
		if len(row) != a.dim {
			a.mu.Unlock()
			panic(fmt.Sprintf("transport: put row len %d into dim-%d arena", len(row), a.dim))
		}
		a.free = append(a.free, row)
	}
	a.mu.Unlock()
}

// rowSlicePool recycles [][]float32 headers (fetch results, scatter/gather
// assembly). Headers are zeroed on Put so a recycled header cannot leak the
// previous batch's rows.
var rowSlicePool struct {
	mu   sync.Mutex
	free [][][]float32
}

// GetRowSlice returns a [][]float32 of length n with all-nil slots. The
// caller must assign every slot before reading.
func GetRowSlice(n int) [][]float32 {
	rowSlicePool.mu.Lock()
	if l := len(rowSlicePool.free); l > 0 {
		h := rowSlicePool.free[l-1]
		rowSlicePool.free[l-1] = nil
		rowSlicePool.free = rowSlicePool.free[:l-1]
		if cap(h) >= n {
			rowSlicePool.mu.Unlock()
			return h[:n]
		}
		// Too small for this batch: drop it and allocate at the new high
		// water mark. Steady-state batch sizes converge, so this settles.
	}
	rowSlicePool.mu.Unlock()
	return make([][]float32, n)
}

// PutRowSlice returns a header to the pool, clearing its slots. The rows it
// referenced are unaffected — releasing those is a separate decision made
// by whoever owns them.
func PutRowSlice(h [][]float32) {
	if h == nil {
		return
	}
	clear(h[:cap(h)])
	rowSlicePool.mu.Lock()
	rowSlicePool.free = append(rowSlicePool.free, h)
	rowSlicePool.mu.Unlock()
}

// rowMapPool recycles id→row maps — the payload shape of replica pushes.
// A sender builds its snapshot in a pooled map, the mesh moves it (by
// reference in process, re-materialized by the codec over TCP), and the
// receiver returns it once the rows have been claimed.
var rowMapPool struct {
	mu   sync.Mutex
	free []map[uint64][]float32
}

// GetRowMap returns an empty id→row map.
func GetRowMap() map[uint64][]float32 {
	rowMapPool.mu.Lock()
	if l := len(rowMapPool.free); l > 0 {
		m := rowMapPool.free[l-1]
		rowMapPool.free[l-1] = nil
		rowMapPool.free = rowMapPool.free[:l-1]
		rowMapPool.mu.Unlock()
		return m
	}
	rowMapPool.mu.Unlock()
	return make(map[uint64][]float32)
}

// PutRowMap clears m and returns it to the pool. As with PutRowSlice, the
// rows it referenced stay owned by whoever took them out.
func PutRowMap(m map[uint64][]float32) {
	if m == nil {
		return
	}
	clear(m)
	rowMapPool.mu.Lock()
	rowMapPool.free = append(rowMapPool.free, m)
	rowMapPool.mu.Unlock()
}
