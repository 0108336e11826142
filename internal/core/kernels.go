package core

import "spray/internal/num"

// Bounds-check-free inner kernels shared by the strategies' hot
// accumulate paths (dense copy merge, block segment accumulate and
// fallback merge, keeper owned-segment accumulate, tiered replica-line
// merge). Each kernel front-loads one explicit length (or shape) guard
// so the compiler's prove pass can discharge every check inside the
// loop — including the pinning re-slices, which an implicit prologue
// re-slice alone would not achieve (the re-slice itself emits
// IsSliceInBounds unless a dominating comparison proves it).
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

// addMaskedLine accumulates the touched elements of one replica-cache
// line into its destination window: dst[j] += src[j] for every j < len(dst)
// with bit j set in m. The tiered merge calls it once per (thread, hot
// slot); untouched elements are skipped rather than added, so a cached
// line never perturbs signed zeros or NaN payloads the region did not
// actually write. src may be longer than dst (the last line of the array
// can be partial); it must not be shorter.
func addMaskedLine[T num.Float](dst, src []T, m uint16) {
	if len(src) < len(dst) {
		panic("core: addMaskedLine source shorter than destination")
	}
	src = src[:len(dst)]
	for j := range dst {
		if m&(1<<uint(j)) != 0 {
			dst[j] += src[j]
		}
	}
}
