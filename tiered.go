package spray

// hotSeeder is the capability the tiered wrapper exposes for
// profile-guided promotion; the helpers below find it through any
// wrapper layers.
type hotSeeder interface {
	SeedHotLines(lines []int)
	LineElems() int
}

// findSeeder unwraps a plan+ layer (via its Inner exposure)
// until it reaches a tiered reducer, or reports that r has none.
func findSeeder[T Value](r Reducer[T]) (hotSeeder, bool) {
	for {
		if s, ok := r.(hotSeeder); ok {
			return s, true
		}
		iw, ok := r.(interface{ Inner() Reducer[T] })
		if !ok {
			return nil, false
		}
		r = iw.Inner()
	}
}

// SeedHotLines installs a profile-guided promotion set into the tiered
// layer of r: the given cache-line numbers (hottest first, in units of
// the tiered layer's LineElems) are promoted into every thread's replica
// cache at the start of each subsequent region. A plan+ layer
// (plan+hot+...) is traversed automatically. Returns
// false when r has no tiered layer. Call between regions only.
func SeedHotLines[T Value](r Reducer[T], lines []int) bool {
	s, ok := findSeeder(r)
	if !ok {
		return false
	}
	s.SeedHotLines(lines)
	return true
}

// SeedFromProfile seeds the tiered layer of r with the top k hot lines
// of a contention profile from a previous run (spraybulk -hotprofile,
// Instrumentation.HotspotProfile, or the advisor's recorder) — the
// profile-guided half of the tiered strategy's promotion policy. Line
// granularity is converted when the profile was sampled at a different
// LineElems. Returns false when r has no tiered layer or the profile is
// empty.
func SeedFromProfile[T Value](r Reducer[T], p *HotspotProfile, k int) bool {
	s, ok := findSeeder(r)
	if !ok || p == nil {
		return false
	}
	lines := p.PromotionSet(k)
	if len(lines) == 0 {
		return false
	}
	if le := s.LineElems(); p.LineElems > 0 && p.LineElems != le {
		// Rescale: map each profiled line's first element into the
		// tiered layer's line space, dropping duplicates that collapse
		// onto the same target line (order, hence heat ranking, is
		// preserved).
		seen := make(map[int]struct{}, len(lines))
		scaled := lines[:0]
		for _, ln := range lines {
			t := ln * p.LineElems / le
			if _, dup := seen[t]; dup {
				continue
			}
			seen[t] = struct{}{}
			scaled = append(scaled, t)
		}
		lines = scaled
	}
	s.SeedHotLines(lines)
	return true
}
