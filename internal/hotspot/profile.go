package hotspot

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// ProfileSchemaVersion stamps serialized profiles so future layout
// changes stay detectable.
const ProfileSchemaVersion = 1

// LineStat is one hot cache line in a Profile.
type LineStat struct {
	// Line is the cache-line number (index >> log2(LineElems)).
	Line int `json:"line"`
	// Index is the first element index covered by the line.
	Index int `json:"index"`
	// Count is the line's sampled conflict weight (sum of the per-shard
	// count-min estimates). Multiply by SamplePeriod for an unbiased
	// estimate of the true event count.
	Count uint64 `json:"count"`
}

// Profile is the serializable aggregate of a Profiler: per-class event
// totals and the global top-K hot lines. It is what -hotprofile writes
// and sprayadvise -profile consumes.
type Profile struct {
	SchemaVersion int    `json:"schema_version"`
	Strategy      string `json:"strategy"`
	N             int    `json:"n"`
	Threads       int    `json:"threads"`
	LineElems     int    `json:"line_elems"`
	NumLines      int    `json:"num_lines"`
	SketchDepth   int    `json:"sketch_depth"`
	SketchWidth   int    `json:"sketch_width"`
	SamplePeriod  int    `json:"sample_period"`

	// Updates is the total number of reduction updates observed by the
	// surrounding telemetry window, when known — the denominator for
	// conflict rates. 0 when unknown.
	Updates uint64 `json:"updates,omitempty"`

	// Totals holds exact per-class event weights (counted on every
	// recording call); Sampled holds the decimated weight that reached
	// the sketch (the denominator for Lines).
	Totals  map[string]uint64 `json:"totals"`
	Sampled map[string]uint64 `json:"sampled"`

	// Lines is the merged top-K hot-line table, sorted by Count
	// descending then Line ascending.
	Lines []LineStat `json:"lines"`
}

// estimate queries one shard's count-min sketch for a line's sampled
// weight (an upper bound on the true per-shard sampled weight).
func (s *Shard) estimate(ln uint64) uint64 {
	width := uint64(1) << s.logW
	est := ^uint64(0)
	for r := 0; r < s.depth; r++ {
		h := (ln * seeds[r]) >> (64 - s.logW)
		if v := s.cells[uint64(r)*width+h].Load(); v < est {
			est = v
		}
	}
	return est
}

// Snapshot aggregates all shards into a Profile. Safe to call while
// threads are still recording (atomic reads; the result is a consistent
// enough view for monitoring).
func (p *Profiler) Snapshot() *Profile {
	if p == nil {
		return nil
	}
	prof := &Profile{
		SchemaVersion: ProfileSchemaVersion,
		Strategy:      p.strategy,
		N:             p.n,
		Threads:       p.threads,
		LineElems:     p.opts.LineElems,
		NumLines:      p.numLines,
		SketchDepth:   p.opts.SketchDepth,
		SketchWidth:   p.opts.SketchWidth,
		SamplePeriod:  p.opts.SamplePeriod,
		Totals:        make(map[string]uint64, NumClasses),
		Sampled:       make(map[string]uint64, NumClasses),
	}
	for c := Class(0); c < NumClasses; c++ {
		var tot, smp uint64
		for t := range p.shards {
			tot += p.shards[t].events[c].Load()
			smp += p.shards[t].sampled[c].Load()
		}
		if tot > 0 {
			prof.Totals[c.String()] = tot
		}
		if smp > 0 {
			prof.Sampled[c.String()] = smp
		}
	}
	candidates := make(map[uint64]struct{})
	for t := range p.shards {
		s := &p.shards[t]
		for k := range s.top {
			if e := s.top[k].Load(); e != 0 {
				candidates[e>>32] = struct{}{}
			}
		}
	}
	prof.Lines = make([]LineStat, 0, len(candidates))
	for ln := range candidates {
		var cnt uint64
		for t := range p.shards {
			cnt += p.shards[t].estimate(ln)
		}
		if cnt == 0 {
			continue
		}
		prof.Lines = append(prof.Lines, LineStat{
			Line:  int(ln),
			Index: int(ln) * p.opts.LineElems,
			Count: cnt,
		})
	}
	sortLines(prof.Lines)
	if len(prof.Lines) > p.opts.TopK {
		prof.Lines = prof.Lines[:p.opts.TopK]
	}
	return prof
}

func sortLines(ls []LineStat) {
	sort.Slice(ls, func(i, j int) bool {
		if ls[i].Count != ls[j].Count {
			return ls[i].Count > ls[j].Count
		}
		return ls[i].Line < ls[j].Line
	})
}

// TopLines returns the first k hot lines (fewer when the profile has
// fewer).
func (p *Profile) TopLines(k int) []LineStat {
	if p == nil || k <= 0 {
		return nil
	}
	if k > len(p.Lines) {
		k = len(p.Lines)
	}
	return p.Lines[:k]
}

// TotalConflicts sums the per-class exact event totals.
func (p *Profile) TotalConflicts() uint64 {
	if p == nil {
		return 0
	}
	var t uint64
	for _, v := range p.Totals {
		t += v
	}
	return t
}

// DominantClass returns the conflict class with the largest exact total
// and its weight ("" when the profile saw no conflicts).
func (p *Profile) DominantClass() (string, uint64) {
	if p == nil {
		return "", 0
	}
	name, best := "", uint64(0)
	for c := Class(0); c < NumClasses; c++ {
		if v := p.Totals[c.String()]; v > best {
			name, best = c.String(), v
		}
	}
	return name, best
}

// Merge folds other into p (same strategy restarted, or several
// providers of one strategy): totals add, hot lines merge
// by line number. Geometry must agree; mismatched profiles are left
// unmerged and reported.
func (p *Profile) Merge(other *Profile) error {
	if p == nil || other == nil {
		return nil
	}
	if p.N != other.N || p.LineElems != other.LineElems {
		return fmt.Errorf("hotspot: cannot merge profiles with different geometry (n %d vs %d, line_elems %d vs %d)",
			p.N, other.N, p.LineElems, other.LineElems)
	}
	for k, v := range other.Totals {
		p.Totals[k] += v
	}
	for k, v := range other.Sampled {
		p.Sampled[k] += v
	}
	p.Updates += other.Updates
	byLine := make(map[int]int, len(p.Lines))
	for i := range p.Lines {
		byLine[p.Lines[i].Line] = i
	}
	for _, l := range other.Lines {
		if i, ok := byLine[l.Line]; ok {
			p.Lines[i].Count += l.Count
		} else {
			p.Lines = append(p.Lines, l)
		}
	}
	sortLines(p.Lines)
	return nil
}

// WriteFile serializes the profile as indented JSON.
func (p *Profile) WriteFile(path string) error {
	return writeJSONFile(path, p)
}

// WriteProfiles serializes a set of profiles (one per strategy) as a
// JSON array — the format of the CLIs' -hotprofile output.
func WriteProfiles(path string, profiles []*Profile) error {
	return writeJSONFile(path, profiles)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadProfiles loads profiles from a file written by WriteFile (single
// object) or WriteProfiles (array); both shapes are accepted.
func ReadProfiles(path string) ([]*Profile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ps []*Profile
	if err := json.Unmarshal(b, &ps); err != nil {
		var p Profile
		if err2 := json.Unmarshal(b, &p); err2 != nil {
			return nil, fmt.Errorf("hotspot: %s is neither a profile nor a profile array: %w", path, err)
		}
		ps = []*Profile{&p}
	}
	for _, p := range ps {
		if p == nil {
			return nil, errors.New("hotspot: null profile entry in " + path)
		}
		if p.SchemaVersion != ProfileSchemaVersion {
			return nil, fmt.Errorf("hotspot: %s has schema version %d, want %d", path, p.SchemaVersion, ProfileSchemaVersion)
		}
		if p.Totals == nil {
			p.Totals = map[string]uint64{}
		}
		if p.Sampled == nil {
			p.Sampled = map[string]uint64{}
		}
	}
	return ps, nil
}
