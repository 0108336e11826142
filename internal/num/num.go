// Package num provides the numeric foundation shared by every reducer:
// the floating-point type constraint, atomic compare-and-swap updates on
// float words (the way compilers lower "#pragma omp atomic update" on
// systems without native floating-point fetch-and-add), and accuracy
// helpers used by the test suite.
package num

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Float is the element type constraint for all reducers. The paper's C++
// implementation is templated over arbitrary types with compound
// assignment; the Go port supports the two floating-point widths the
// evaluation uses. Named float types are accepted via ~.
type Float interface {
	~float32 | ~float64
}

// AtomicAdd64 adds v to *p atomically using a CAS loop over the bit
// pattern. This mirrors the compare-and-swap lowering of an OpenMP atomic
// update on a double.
func AtomicAdd64(p *float64, v float64) {
	u := (*uint64)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint64(u)
		new := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(u, old, new) {
			return
		}
	}
}

// AtomicAdd32 adds v to *p atomically using a CAS loop over the bit
// pattern, the float32 analogue of AtomicAdd64.
func AtomicAdd32(p *float32, v float32) {
	u := (*uint32)(unsafe.Pointer(p))
	for {
		old := atomic.LoadUint32(u)
		new := math.Float32bits(math.Float32frombits(old) + v)
		if atomic.CompareAndSwapUint32(u, old, new) {
			return
		}
	}
}

// AtomicAdd adds v to slice element s[i] atomically. It dispatches on the
// element width at compile time (the size switch is resolved per
// instantiation), so the generic wrapper costs one comparison.
func AtomicAdd[T Float](s []T, i int, v T) {
	switch unsafe.Sizeof(v) {
	case 8:
		AtomicAdd64((*float64)(unsafe.Pointer(&s[i])), float64(v))
	default:
		AtomicAdd32((*float32)(unsafe.Pointer(&s[i])), float32(v))
	}
}

// Kahan is a compensated accumulator. The test suite uses it to build
// high-accuracy reference sums against which reducer results are compared
// with a relative tolerance.
type Kahan struct {
	Sum float64
	c   float64
}

// Add folds v into the compensated sum.
func (k *Kahan) Add(v float64) {
	y := v - k.c
	t := k.Sum + y
	k.c = (t - k.Sum) - y
	k.Sum = t
}

// RelClose reports whether a and b agree within relative tolerance tol
// (absolute tolerance tol for values near zero). Reductions reorder
// floating-point additions, so exact equality is the wrong test.
func RelClose(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= tol {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m
}

// MaxAbsDiff returns the largest elementwise |a[i]-b[i]|. Panics if the
// slices differ in length.
func MaxAbsDiff[T Float](a, b []T) float64 {
	if len(a) != len(b) {
		panic("num: MaxAbsDiff length mismatch")
	}
	var m float64
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// AtomicAdd64Retries is AtomicAdd64 with telemetry: it reports how many
// CAS attempts lost to a concurrent writer before one succeeded (0 under
// no contention). Kept separate from AtomicAdd so the uninstrumented hot
// path carries no counter bookkeeping.
func AtomicAdd64Retries(p *float64, v float64) int {
	u := (*uint64)(unsafe.Pointer(p))
	retries := 0
	for {
		old := atomic.LoadUint64(u)
		new := math.Float64bits(math.Float64frombits(old) + v)
		if atomic.CompareAndSwapUint64(u, old, new) {
			return retries
		}
		retries++
	}
}

// AtomicAdd32Retries is the float32 analogue of AtomicAdd64Retries.
func AtomicAdd32Retries(p *float32, v float32) int {
	u := (*uint32)(unsafe.Pointer(p))
	retries := 0
	for {
		old := atomic.LoadUint32(u)
		new := math.Float32bits(math.Float32frombits(old) + v)
		if atomic.CompareAndSwapUint32(u, old, new) {
			return retries
		}
		retries++
	}
}

// AtomicAddRetries adds v to s[i] atomically and returns the number of
// failed CAS attempts — the instrumented sibling of AtomicAdd.
func AtomicAddRetries[T Float](s []T, i int, v T) int {
	switch unsafe.Sizeof(v) {
	case 8:
		return AtomicAdd64Retries((*float64)(unsafe.Pointer(&s[i])), float64(v))
	default:
		return AtomicAdd32Retries((*float32)(unsafe.Pointer(&s[i])), float32(v))
	}
}
