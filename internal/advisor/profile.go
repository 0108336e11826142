package advisor

import (
	"fmt"
	"sort"

	"spray"
	"spray/internal/hotspot"
)

// Profile-guided recommendation: where Recommend works from an exact
// offline tape, RecommendFromProfile works from the sampled contention
// profile a run records (spray.Instrumentation.EnableHotspot, or a file
// saved with -hotprofile). The profile is cheaper and lossier than a
// tape — it sees conflicts, not the full access pattern — so the rules
// here key off what the profiler actually measures: the conflict rate,
// which conflict class dominates, and how spatially concentrated the hot
// lines are.

// ProfileConcentration returns the fraction of the profile's sampled
// conflict weight captured by its top k hot lines (0 when nothing was
// sampled) — 1.0 means every observed conflict landed in k cache lines.
func ProfileConcentration(p *hotspot.Profile, k int) float64 {
	if p == nil {
		return 0
	}
	var sampled uint64
	for _, v := range p.Sampled {
		sampled += v
	}
	if sampled == 0 {
		return 0
	}
	var top uint64
	for _, l := range p.TopLines(k) {
		top += l.Count
	}
	if top > sampled {
		return 1
	}
	return float64(top) / float64(sampled)
}

// RecommendFromProfile turns a sampled contention profile into a
// strategy recommendation. The ladder mirrors the paper's guidance the
// way Recommend does, translated to profiler-visible signals:
//
//   - no conflict events at all     -> atomic (no memory overhead)
//   - keeper-foreign dominated      -> ownership fit: low foreign share
//     keeps the keeper, high foreign share escalates
//   - plan exchanges dominated      -> the pattern repeats; stay compiled
//   - retries/claims, tiny rate     -> atomic (contention negligible)
//   - conflicts but an empty sketch -> rate-based fallback: the profile
//     has no spatial signal, so "diffuse" cannot be concluded
//   - concentrated hot lines        -> adaptive: privatize just the hot
//     blocks
//   - diffuse heavy contention      -> private blocks, no synchronization
func RecommendFromProfile(p *hotspot.Profile) Recommendation {
	if p == nil || p.TotalConflicts() == 0 {
		if p != nil && p.Updates > 0 {
			return Recommendation{spray.Atomic(), fmt.Sprintf(
				"%d updates were profiled with zero conflict events — atomics avoid all memory overhead", p.Updates)}
		}
		return Recommendation{spray.Auto(spray.DefaultBlockSize),
			"the profile recorded no updates or conflicts — no signal, the adaptive strategy stays safe"}
	}
	total := p.TotalConflicts()
	var rate float64
	if p.Updates > 0 {
		rate = float64(total) / float64(p.Updates)
	}
	cls, clsW := p.DominantClass()
	conc := ProfileConcentration(p, 16)

	// The routing classes (foreign submissions, plan exchanges) are
	// handled by shape, not rate: a small foreign share is
	// evidence the keeper fits, not that contention is negligible.
	switch cls {
	case hotspot.KeeperForeign.String():
		share := rate
		if p.Updates > 0 {
			share = float64(clsW) / float64(p.Updates)
		}
		if share <= 0.1 {
			return Recommendation{spray.Keeper(), fmt.Sprintf(
				"foreign submissions are only %.1f%% of updates — the static ownership model fits, keep the keeper", 100*share)}
		}
		return Recommendation{spray.BlockCAS(spray.DefaultBlockSize), fmt.Sprintf(
			"%.0f%% of updates cross the ownership partition — block claiming follows the accesses instead of a fixed split", 100*share)}
	case hotspot.PlanExchange.String():
		return Recommendation{spray.Planned(spray.Keeper()), fmt.Sprintf(
			"%d plan exchange merges dominate — the pattern repeats and the compiled route is already absorbing the conflicts", clsW)}
	}
	// CAS retries or block claim contention: rate first, then spatial
	// shape.
	if p.Updates > 0 && rate <= 0.01 {
		return Recommendation{spray.Atomic(), fmt.Sprintf(
			"conflict events are %.2f%% of updates — contention is negligible, atomics avoid all memory overhead", 100*rate)}
	}
	// All-cold sketch: conflict classes fired, but no hot-line sample
	// survived into the top-K table (heavy decimation, or a stream that
	// never revisits a line). Concentration is unmeasured here, not zero,
	// so the spatial rungs below cannot run — fall back to the rate.
	if len(p.Lines) == 0 {
		if p.Updates > 0 && rate >= 0.25 {
			return Recommendation{spray.BlockPrivate(spray.DefaultBlockSize), fmt.Sprintf(
				"conflicts are %.0f%% of updates but the sketch captured no hot lines — contention is heavy and unlocalized, private blocks avoid synchronization without needing a hot set", 100*rate)}
		}
		return Recommendation{spray.Auto(spray.DefaultBlockSize),
			"conflicts were recorded but the sketch captured no hot lines — no spatial signal, the adaptive strategy discovers hot blocks at run time"}
	}
	if conc >= 0.5 {
		return Recommendation{spray.Auto(spray.DefaultBlockSize), fmt.Sprintf(
			"the top 16 hot lines carry %.0f%% of the sampled conflict weight — the adaptive strategy privatizes just those blocks", 100*conc)}
	}
	return Recommendation{spray.BlockPrivate(spray.DefaultBlockSize), fmt.Sprintf(
		"%s conflicts are diffuse (top 16 lines hold %.0f%% of the weight) — private blocks avoid synchronization entirely", cls, 100*conc)}
}

// TopConflictLines is the exact, line-granularity counterpart of the
// profiler's Profile.TopLines: it returns the k cache lines (lineElems
// elements each) with the most updates to cross-thread-contended
// indices, sorted by that weight descending then line ascending. The
// sketch-accuracy tests compare the sampled top-K against this.
func (r *Recorder) TopConflictLines(k, lineElems int) []int {
	if lineElems <= 0 {
		lineElems = 8
	}
	owners := map[int32]int8{} // 1 = one thread, 2 = several
	for t := range r.tapes {
		for idx := range r.tapes[t].touched {
			switch owners[idx] {
			case 0:
				owners[idx] = 1
			case 1:
				owners[idx] = 2
			}
		}
	}
	weight := map[int]uint64{}
	for t := range r.tapes {
		for idx, cnt := range r.tapes[t].touched {
			if owners[idx] > 1 {
				weight[int(idx)/lineElems] += uint64(cnt)
			}
		}
	}
	type kv struct {
		line int
		w    uint64
	}
	all := make([]kv, 0, len(weight))
	for ln, w := range weight {
		all = append(all, kv{ln, w})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].w != all[j].w {
			return all[i].w > all[j].w
		}
		return all[i].line < all[j].line
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].line
	}
	return out
}
