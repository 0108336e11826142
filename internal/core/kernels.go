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
func addInto[T num.Float](dst, src []T) {
	if len(src) < len(dst) {
		panic("core: addInto source shorter than destination")
	}
	src = src[:len(dst)]
	for j := range dst {
		dst[j] += src[j]
	}
}
