package main

import (
	"fmt"
	"sync"
	"time"
)

// samplePeriod is how often the sampler reads the example count and memory.
const samplePeriod = 5 * time.Millisecond

// sampleCap is the number of samples the sampler reserves room for up front
// (over two minutes of a rep), so sampling allocates nothing while the rep
// is timed and the memory figures carry none of the benchmark's own garbage.
const sampleCap = 1 << 15

// sampler is the one goroutine that watches a run: it reads the engine's
// completed-example count and the runtime's memory in use on a fixed tick.
type sampler struct {
	t0      time.Time
	quit    chan struct{}
	once    sync.Once
	wg      sync.WaitGroup
	ts      []time.Duration
	ex      []int64
	memPeak uint64
}

func startSampler(examples func() int64, t0 time.Time) *sampler {
	s := &sampler{t0: t0, quit: make(chan struct{}),
		ts: make([]time.Duration, 0, sampleCap), ex: make([]int64, 0, sampleCap)}
	mem := newMemSampler()
	sample := func() {
		s.ts = append(s.ts, time.Since(s.t0))
		s.ex = append(s.ex, examples())
		s.memPeak = max(s.memPeak, mem.inUse())
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			sample()
			select {
			case <-s.quit:
				sample()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// stop takes a last sample, ends sampling and waits for the goroutine;
// later calls do nothing.
func (s *sampler) stop() {
	s.once.Do(func() { close(s.quit) })
	s.wg.Wait()
}

// crossing returns the index of the first sample at or above n examples.
func (s *sampler) crossing(n int64) (int, bool) {
	for i, e := range s.ex {
		if e >= n {
			return i, true
		}
	}
	return 0, false
}

// rates returns the time from the start of the run to its first completed
// example, and the examples completed and time taken between 20% and 90% of
// the run's examples — the steady state, past the pipeline's warm-up and
// short of its drain.
func (s *sampler) rates(total int64) (setup time.Duration, ex int64, steady time.Duration, err error) {
	first, ok := s.crossing(1)
	if !ok {
		return 0, 0, 0, fmt.Errorf("perfbench: no example completed")
	}
	a, okA := s.crossing(total / 5)
	b, okB := s.crossing(total * 9 / 10)
	if !okA || !okB || b <= a {
		return 0, 0, 0, fmt.Errorf("perfbench: run too short to find a steady state (%d examples)", total)
	}
	return s.ts[first], s.ex[b] - s.ex[a], s.ts[b] - s.ts[a], nil
}
