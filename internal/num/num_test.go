package num

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAtomicAdd64Concurrent(t *testing.T) {
	var x float64
	const workers, each = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				AtomicAdd64(&x, 1)
			}
		}()
	}
	wg.Wait()
	if x != workers*each {
		t.Fatalf("lost updates: got %v, want %v", x, workers*each)
	}
}

func TestAtomicAdd32Concurrent(t *testing.T) {
	var x float32
	const workers, each = 8, 1000 // keep the total exactly representable
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				AtomicAdd32(&x, 1)
			}
		}()
	}
	wg.Wait()
	if x != workers*each {
		t.Fatalf("lost updates: got %v, want %v", x, workers*each)
	}
}

func TestAtomicAddGenericDispatch(t *testing.T) {
	f64 := make([]float64, 3)
	AtomicAdd(f64, 1, 2.5)
	AtomicAdd(f64, 1, 0.5)
	if f64[1] != 3 {
		t.Errorf("float64 slice add: got %v, want 3", f64[1])
	}
	f32 := make([]float32, 3)
	AtomicAdd(f32, 2, 1.25)
	AtomicAdd(f32, 2, 1.25)
	if f32[2] != 2.5 {
		t.Errorf("float32 slice add: got %v, want 2.5", f32[2])
	}
}

func TestAtomicAddNegativeAndFractional(t *testing.T) {
	f := quick.Check(func(vals []float64) bool {
		var want float64
		var x float64
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			want += v
			AtomicAdd64(&x, v)
		}
		return x == want // single goroutine: order identical, must be exact
	}, nil)
	if f != nil {
		t.Fatal(f)
	}
}

func TestKahanBeatsNaive(t *testing.T) {
	// Sum 1 + n tiny values that individually vanish against 1.0.
	const n = 1_000_000
	tiny := 1e-16
	var naive float64 = 1
	var k Kahan
	k.Add(1)
	for i := 0; i < n; i++ {
		naive += tiny
		k.Add(tiny)
	}
	want := 1 + float64(n)*tiny
	if math.Abs(k.Sum-want) >= math.Abs(naive-want) {
		t.Errorf("kahan %v not closer to %v than naive %v", k.Sum, want, naive)
	}
	if !RelClose(k.Sum, want, 1e-12) {
		t.Errorf("kahan sum %v too far from %v", k.Sum, want)
	}
}

func TestRelClose(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 0, true},
		{1, 1 + 1e-13, 1e-12, true},
		{1, 1.1, 1e-3, false},
		{0, 1e-15, 1e-12, true},    // absolute fallback near zero
		{1e9, 1e9 + 1, 1e-6, true}, // relative at scale
		{math.NaN(), 1, 1, false},
		{1, math.NaN(), 1, false},
	}
	for _, c := range cases {
		if got := RelClose(c.a, c.b, c.tol); got != c.want {
			t.Errorf("RelClose(%v,%v,%v) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{1, 2.5, 2}
	if got := MaxAbsDiff(a, b); got != 1 {
		t.Errorf("MaxAbsDiff = %v, want 1", got)
	}
	if got := MaxAbsDiff(a, a); got != 0 {
		t.Errorf("MaxAbsDiff self = %v, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("MaxAbsDiff length mismatch did not panic")
		}
	}()
	MaxAbsDiff(a, b[:2])
}
