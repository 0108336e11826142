package par

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// condBarrier is the previous all-under-mutex Barrier implementation,
// kept verbatim as the baseline for the spin-then-park comparison:
//
//	go test ./internal/par -run '^$' -bench 'Barrier|RegionJoin'
type condBarrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newCondBarrier(n int) *condBarrier {
	b := &condBarrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *condBarrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// hammerBarrier measures rounds per second with n goroutines crossing the
// barrier back to back — the pure synchronization cost with no loop work
// in between, the worst case for a parking design.
func hammerBarrier(b *testing.B, n int, wait func()) {
	var wg sync.WaitGroup
	wg.Add(n)
	for g := 0; g < n; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				wait()
			}
		}()
	}
	wg.Wait()
}

func BenchmarkBarrierSpinPark4(b *testing.B) {
	bar := NewBarrier(4)
	hammerBarrier(b, 4, bar.Wait)
}

func BenchmarkBarrierCondBased4(b *testing.B) {
	bar := newCondBarrier(4)
	hammerBarrier(b, 4, bar.Wait)
}

func BenchmarkBarrierSpinPark8(b *testing.B) {
	bar := NewBarrier(8)
	hammerBarrier(b, 8, bar.Wait)
}

func BenchmarkBarrierCondBased8(b *testing.B) {
	bar := newCondBarrier(8)
	hammerBarrier(b, 8, bar.Wait)
}

// BenchmarkRegionJoin measures the full cost of an empty parallel region
// — dispatch plus join — which is the latency every RunReduction pays on
// top of its loop body and fix-up.
func BenchmarkRegionJoin(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(benchName(n), func(b *testing.B) {
			team := NewTeam(n)
			defer team.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				team.Run(func(int) {})
			}
		})
	}
}

// BenchmarkRegionBarrier measures a region whose body crosses the team
// barrier twice, the shape of phased kernels like the LULESH time step.
func BenchmarkRegionBarrier(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(benchName(n), func(b *testing.B) {
			team := NewTeam(n)
			defer team.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				team.Run(func(int) {
					team.Barrier()
					team.Barrier()
				})
			}
		})
	}
}

// BenchmarkRegionDispatch measures how late a worker starts a region that
// is not empty. BenchmarkRegionJoin cannot see this: with an empty body
// the master blocks at the join at once and the worker runs on the
// master's core. Here member 0 busy-works ~250 µs per region and the
// regions are ~300 µs of serial work apart, the shape of a reduction step
// between sequential phases; the worker records when it starts, relative
// to Run's entry.
func BenchmarkRegionDispatch(b *testing.B) {
	const work, gap = 250 * time.Microsecond, 300 * time.Microsecond
	team := NewTeam(2)
	defer team.Close()
	lat := make([]time.Duration, b.N)
	var entry time.Time
	i := 0
	body := func(tid int) {
		if tid == 0 {
			busy(work)
			return
		}
		lat[i] = time.Since(entry)
	}
	b.ResetTimer()
	for i = 0; i < b.N; i++ {
		busy(gap)
		entry = time.Now()
		team.Run(body)
	}
	b.StopTimer()
	sort.Slice(lat, func(a, c int) bool { return lat[a] < lat[c] })
	b.ReportMetric(float64(lat[len(lat)/2])/1e3, "start-p50-us")
	b.ReportMetric(float64(lat[len(lat)*9/10])/1e3, "start-p90-us")
}

// busy keeps the calling goroutine on its core for d.
func busy(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

func benchName(n int) string {
	return "threads-" + string(rune('0'+n))
}
