package par

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates the OpenMP loop schedules the runtime implements.
type Kind int

const (
	// KindStatic divides the iteration space into one contiguous chunk
	// per member — the OpenMP default ("schedule(static)") and the
	// schedule used throughout the paper's experiments.
	KindStatic Kind = iota
	// KindStaticChunk deals chunks of a fixed size round-robin to
	// members ("schedule(static, c)").
	KindStaticChunk
	// KindDynamic hands out chunks first-come-first-served from a
	// shared counter ("schedule(dynamic, c)").
	KindDynamic
	// KindGuided hands out shrinking chunks proportional to the
	// remaining work ("schedule(guided, c)").
	KindGuided
	// KindSteal runs the work-stealing runtime (stealer.go): members are
	// seeded with their static slices on per-member lock-free chunk
	// deques, pop locally LIFO, and steal FIFO from the nearest victim
	// when dry, with adaptive grain splitting/coalescing. The OpenMP
	// analogue is "schedule(runtime)" bound to a tasking-style
	// work-stealing loop scheduler.
	KindSteal
)

func (k Kind) String() string {
	switch k {
	case KindStatic:
		return "static"
	case KindStaticChunk:
		return "static-chunk"
	case KindDynamic:
		return "dynamic"
	case KindGuided:
		return "guided"
	case KindSteal:
		return "steal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Schedule selects how ParallelFor partitions iterations among members.
type Schedule struct {
	Kind  Kind
	Chunk int
}

// Static returns the default OpenMP schedule: one contiguous chunk per
// member.
func Static() Schedule { return Schedule{Kind: KindStatic} }

// StaticChunk returns a round-robin static schedule with the given chunk
// size (must be positive).
func StaticChunk(c int) Schedule { return Schedule{Kind: KindStaticChunk, Chunk: c} }

// Dynamic returns a dynamic schedule; chunk <= 0 means the OpenMP default
// chunk of 1.
func Dynamic(c int) Schedule {
	if c <= 0 {
		c = 1
	}
	return Schedule{Kind: KindDynamic, Chunk: c}
}

// Guided returns a guided schedule; chunk <= 0 means a minimum chunk of 1.
func Guided(c int) Schedule {
	if c <= 0 {
		c = 1
	}
	return Schedule{Kind: KindGuided, Chunk: c}
}

// Steal returns the work-stealing schedule; grain is the minimum chunk
// size the adaptive grain controller splits down to. grain <= 0 selects
// an automatic grain sized off the loop range and team size.
func Steal(grain int) Schedule {
	if grain < 0 {
		grain = 0
	}
	return Schedule{Kind: KindSteal, Chunk: grain}
}

func (s Schedule) String() string {
	if s.Chunk > 0 {
		return fmt.Sprintf("%s(%d)", s.Kind, s.Chunk)
	}
	return s.Kind.String()
}

// validate panics on malformed schedules so misuse fails loudly at the
// call site rather than silently skipping iterations.
func (s Schedule) validate() {
	if s.Kind == KindStaticChunk && s.Chunk < 1 {
		panic("par: static-chunk schedule requires a positive chunk size")
	}
	if (s.Kind == KindDynamic || s.Kind == KindGuided) && s.Chunk < 1 {
		panic("par: dynamic/guided schedule requires a positive chunk size")
	}
	if s.Kind == KindSteal && s.Chunk < 0 {
		panic("par: steal schedule grain must be >= 0 (0 = automatic)")
	}
}

// ParseSchedule parses the string forms of a schedule: a kind name
// ("static", "static-chunk", "dynamic", "guided", "steal") optionally
// followed by a chunk/grain as ":<n>" or "(<n>)" — the latter matching
// Schedule.String output. "static:<n>" with n > 0 selects the
// round-robin static-chunk schedule, mirroring OpenMP's
// "schedule(static, n)".
func ParseSchedule(text string) (Schedule, error) {
	name, chunkStr := text, ""
	if i := strings.IndexByte(text, ':'); i >= 0 {
		name, chunkStr = text[:i], text[i+1:]
	} else if i := strings.IndexByte(text, '('); i >= 0 && strings.HasSuffix(text, ")") {
		name, chunkStr = text[:i], text[i+1:len(text)-1]
	}
	chunk := 0
	if chunkStr != "" {
		c, err := strconv.Atoi(strings.TrimSpace(chunkStr))
		if err != nil || c < 1 {
			return Schedule{}, fmt.Errorf("par: bad chunk %q in schedule %q (want a positive integer)", chunkStr, text)
		}
		chunk = c
	}
	switch strings.TrimSpace(name) {
	case "static":
		if chunk > 0 {
			return StaticChunk(chunk), nil
		}
		return Static(), nil
	case "static-chunk":
		if chunk < 1 {
			return Schedule{}, fmt.Errorf("par: schedule %q requires a chunk size (e.g. \"static-chunk:64\")", text)
		}
		return StaticChunk(chunk), nil
	case "dynamic":
		return Dynamic(chunk), nil
	case "guided":
		return Guided(chunk), nil
	case "steal":
		return Steal(chunk), nil
	}
	return Schedule{}, fmt.Errorf("par: unknown schedule %q (want static, static-chunk, dynamic, guided or steal, optionally with \":<chunk>\")", text)
}

// ParallelFor executes the half-open iteration range [lo, hi) on the team
// using the given schedule. body is invoked with the member id and a
// sub-range [from, to) and must process exactly those iterations; the
// chunked form keeps inner loops free of per-iteration dispatch. It is the
// analogue of "#pragma omp parallel for schedule(...)".
func ParallelFor(t *Team, lo, hi int, s Schedule, body func(tid, from, to int)) {
	if hi <= lo {
		return
	}
	t.Loop(s, lo, hi)
	t.forBody = body
	t.Run(t.forFn)
	t.forBody = nil
}

// ParallelForEach is the per-index convenience form of ParallelFor.
func ParallelForEach(t *Team, lo, hi int, s Schedule, body func(tid, i int)) {
	ParallelFor(t, lo, hi, s, func(tid, from, to int) {
		for i := from; i < to; i++ {
			body(tid, i)
		}
	})
}

// StaticRange returns the contiguous sub-range [from, to) of [lo, hi)
// assigned to member tid of n under the default static schedule. Remainder
// iterations are distributed one-per-member to the lowest tids, matching
// common OpenMP runtimes.
func StaticRange(lo, hi, tid, n int) (from, to int) {
	total := hi - lo
	if total <= 0 {
		return lo, lo
	}
	q, r := total/n, total%n
	from = lo + tid*q + min(tid, r)
	to = from + q
	if tid < r {
		to++
	}
	return from, to
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
