package memtrack

import (
	"sync"
	"testing"
)

func TestAllocFreePeak(t *testing.T) {
	var c Counter
	c.Alloc(100)
	c.Alloc(50)
	if c.Bytes() != 150 || c.Peak() != 150 {
		t.Fatalf("after allocs: bytes=%d peak=%d", c.Bytes(), c.Peak())
	}
	c.Free(120)
	if c.Bytes() != 30 {
		t.Errorf("after free: bytes=%d, want 30", c.Bytes())
	}
	if c.Peak() != 150 {
		t.Errorf("peak moved: %d, want 150", c.Peak())
	}
	c.Alloc(60)
	if c.Bytes() != 90 || c.Peak() != 150 {
		t.Errorf("realloc below peak: bytes=%d peak=%d", c.Bytes(), c.Peak())
	}
	c.Alloc(100)
	if c.Peak() != 190 {
		t.Errorf("new peak: %d, want 190", c.Peak())
	}
}

func TestZeroAndNilSafe(t *testing.T) {
	var c Counter
	c.Alloc(0)
	c.Free(0)
	if c.Bytes() != 0 || c.Peak() != 0 {
		t.Errorf("zero ops changed counter: %d/%d", c.Bytes(), c.Peak())
	}
	var nilC *Counter
	nilC.Alloc(10) // must not panic
	nilC.Free(10)
	nilC.Reset()
	if nilC.Bytes() != 0 || nilC.Peak() != 0 {
		t.Errorf("nil counter nonzero")
	}
}

func TestReset(t *testing.T) {
	var c Counter
	c.Alloc(500)
	c.Reset()
	if c.Bytes() != 0 || c.Peak() != 0 {
		t.Errorf("after reset: %d/%d", c.Bytes(), c.Peak())
	}
}

func TestConcurrentAccounting(t *testing.T) {
	var c Counter
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Alloc(3)
			}
			for i := 0; i < each; i++ {
				c.Free(1)
			}
		}()
	}
	wg.Wait()
	want := int64(workers * each * 2)
	if c.Bytes() != want {
		t.Errorf("bytes=%d, want %d", c.Bytes(), want)
	}
	if c.Peak() < want || c.Peak() > int64(workers*each*3) {
		t.Errorf("peak=%d outside [%d,%d]", c.Peak(), want, workers*each*3)
	}
}

func TestSliceBytes(t *testing.T) {
	if got := SliceBytes(10, 8); got != 80 {
		t.Errorf("SliceBytes(10,8)=%d", got)
	}
	if got := SliceBytes(0, 8); got != 0 {
		t.Errorf("SliceBytes(0,8)=%d", got)
	}
}

// TestConcurrentAllocFreePeakInvariants interleaves Alloc and Free across
// goroutines (run under -race) and checks what the lock-free peak CAS loop
// guarantees: the final balance is exact, the peak is never below the
// live bytes once the workers are quiescent, and it never exceeds the
// theoretical maximum of all allocations landing before any free.
//
// While workers run, the peak may lag the live bytes: Alloc publishes its
// addition to bytes before its CAS loop raises peak, so a reader can see
// an allocation in Bytes() that Peak() does not cover yet. Each worker has
// at most one such in-flight Alloc, so the lag is bounded by
// workers*chunk; every completed Alloc has raised peak to at least the
// bytes value it published.
func TestConcurrentAllocFreePeakInvariants(t *testing.T) {
	var c Counter
	const workers, rounds, chunk = 8, 2000, 5
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: peak must never lag live bytes
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				b, p := c.Bytes(), c.Peak()
				if p < b-workers*chunk {
					t.Errorf("peak %d lags live bytes %d by more than the %d in-flight bytes", p, b, workers*chunk)
					return
				}
			}
		}
	}()
	var workersWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func() {
			defer workersWG.Done()
			for i := 0; i < rounds; i++ {
				c.Alloc(chunk)
				c.Free(chunk - 1) // net +1 per round
			}
		}()
	}
	workersWG.Wait()
	close(stop)
	wg.Wait()
	want := int64(workers * rounds)
	if p, b := c.Peak(), c.Bytes(); p < b {
		t.Errorf("quiescent peak %d < live bytes %d", p, b)
	}
	if c.Bytes() != want {
		t.Errorf("final bytes %d, want %d", c.Bytes(), want)
	}
	if c.Peak() < want || c.Peak() > int64(workers*rounds*chunk) {
		t.Errorf("peak %d outside [%d, %d]", c.Peak(), want, workers*rounds*chunk)
	}
}
