package core

import "spray/internal/num"

// Bounds-check-free inner kernels shared by the strategies' hot
// accumulate paths (dense copy merge, block segment accumulate and
// fallback merge, keeper owned-segment accumulate). Each kernel
// front-loads one explicit length (or shape) guard so the compiler's
// prove pass can discharge every check inside the loop — including the
// pinning re-slices, which an implicit prologue re-slice alone would not
// achieve (the re-slice itself emits IsSliceInBounds unless a dominating
// comparison proves it).
//
// `make bce-audit` builds the tree with -d=ssa/check_bce and fails if
// the compiler reports any bounds check in this file, so the property
// is enforced, not aspirational. Data-dependent gathers (out[idx[j]]
// over the whole array, slot-table lookups) are NOT routed through
// here: their per-element check is irreducible and they keep their
// local loops.

// addInto accumulates src into dst elementwise: dst[j] += src[j] for
// every j < len(dst). src may be longer than dst; it must not be
// shorter.
//
// The loop is unrolled by four. The plain one-element loop is a few
// instructions long, so its speed depends on where the linker places it
// relative to cache-line boundaries: keeper's conv-bulk accumulate time
// nearly doubled when unrelated code above it grew. The unrolled body is
// long enough that placement stops mattering. The `> 4` guard keeps the
// re-sliced tails non-empty, which spares each re-slice the compiler's
// past-the-end pointer guard.
func addInto[T num.Float](dst, src []T) {
	if len(src) < len(dst) {
		panic("core: addInto source shorter than destination")
	}
	for len(dst) > 4 && len(src) > 4 {
		dst[0] += src[0]
		dst[1] += src[1]
		dst[2] += src[2]
		dst[3] += src[3]
		dst, src = dst[4:], src[4:]
	}
	for j := 0; j < len(dst) && j < len(src); j++ {
		dst[j] += src[j]
	}
}
