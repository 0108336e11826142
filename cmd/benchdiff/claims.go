package main

import (
	"fmt"
	"io"
	"math"
	"strings"

	"spray/internal/bench"
)

// A claim is one ranking the work-stealing schedule must show in a
// schedule comparison (sprayall -figure sched): steal's mean time over
// the rival schedule's, at the same thread count, must stay below bound
// at every point of the legs it covers — or, for a geomean claim, in the
// geometric mean across all of those points. A leg whose title says
// "uniform" is the balanced control; every other leg is imbalanced.
type claim struct {
	what    string  // the claim, as a failure reports it
	rival   string  // schedule kind steal is compared with
	uniform bool    // covers the uniform control leg instead of the imbalanced ones
	geomean bool    // bounds the geometric mean of the ratios, not each ratio
	bound   float64 // largest steal/rival ratio that holds
	strict  bool    // the ratio must stay strictly below bound
}

// scheduleClaims is checked on every candidate that holds a schedule
// comparison (a result with a steal series). The guided bound lets a
// single point be noisy while the geomean still has to favor steal. The
// uniform bound is wide because the control's regions are short
// (hundreds of microseconds) and steal pays its seeding and probing
// there with nothing to balance: in repeated t=2 runs on a 2-core host
// steal/static ranged 0.41-1.65 on this leg (median 1.06,
// EXPERIMENTS.md). Any member preempted by the OS is stolen from, and
// under an ownership strategy (keeper) those steals manufacture foreign
// traffic.
var scheduleClaims = []claim{
	{what: "steal beats dynamic at every point", rival: "dynamic", bound: 1, strict: true},
	{what: "steal is within 20% of guided at every point", rival: "guided", bound: 1.20},
	{what: "steal is no slower than guided in geomean", rival: "guided", geomean: true, bound: 1},
	{what: "steal is within 60% of static on the uniform leg", rival: "static", uniform: true, bound: 1.60},
}

func (c claim) holds(ratio float64) bool {
	if c.strict {
		return ratio < c.bound
	}
	return ratio <= c.bound
}

// checkClaims prints the per-point schedule table of every result with a
// steal series to w and returns the claims that fail, one line each, and
// the number of points checked (0: the file holds no schedule
// comparison).
func checkClaims(f *bench.File, w io.Writer) (violations []string, checked int) {
	logs := make([][]float64, len(scheduleClaims)) // ln(steal/rival) per geomean claim
	for _, res := range f.Results {
		series := map[string][]bench.Point{}
		for _, s := range res.Series {
			series[kindOf(s.Name)] = s.Points
		}
		steal, ok := series["steal"]
		if !ok {
			continue
		}
		uniform := strings.Contains(strings.ToLower(res.Title), "uniform")
		fmt.Fprintf(w, "== %s ==\n", res.Title)
		for _, sp := range steal {
			th := int(sp.X)
			fmt.Fprintf(w, "  t=%d  steal %s", th, bench.FormatSeconds(sp.Time.Mean))
			for _, kind := range []string{"static", "dynamic", "guided"} {
				m := meanAt(series[kind], sp.X)
				fmt.Fprintf(w, "  %s %s (x%.2f)", kind, bench.FormatSeconds(m), ratio(sp.Time.Mean, m))
			}
			fmt.Fprintln(w)
			checked++
			for i, c := range scheduleClaims {
				rival := meanAt(series[c.rival], sp.X)
				if c.uniform != uniform || rival <= 0 {
					continue
				}
				r := sp.Time.Mean / rival
				if c.geomean {
					logs[i] = append(logs[i], math.Log(r))
				} else if !c.holds(r) {
					violations = append(violations, fmt.Sprintf("%s t=%d: steal/%s = %.3f breaks %q", res.Title, th, c.rival, r, c.what))
				}
			}
		}
	}
	for i, c := range scheduleClaims {
		if len(logs[i]) == 0 {
			continue
		}
		g := geomean(logs[i])
		fmt.Fprintf(w, "geomean steal/%s over %d points: %.3f\n", c.rival, len(logs[i]), g)
		if !c.holds(g) {
			violations = append(violations, fmt.Sprintf("geomean steal/%s = %.3f breaks %q", c.rival, g, c.what))
		}
	}
	return violations, checked
}

// kindOf maps a series name ("dynamic(8)", "steal:4096", "static") to
// its schedule kind for lookup.
func kindOf(name string) string {
	for _, cut := range []string{"(", ":"} {
		if i := strings.Index(name, cut); i >= 0 {
			name = name[:i]
		}
	}
	if name == "static-chunk" {
		return "static"
	}
	return name
}

// meanAt is the mean time of the point at x (0 when there is none).
func meanAt(pts []bench.Point, x float64) float64 {
	for _, p := range pts {
		if p.X == x {
			return p.Time.Mean
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func geomean(logs []float64) float64 {
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Exp(sum / float64(len(logs)))
}
