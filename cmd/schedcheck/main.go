// Command schedcheck gates the schedule comparison: it reads the
// BENCH_sched.json written by `spraybulk -workload imbalance` and
// asserts the work-stealing schedule's ranking claims, point by point:
//
//   - On every imbalanced leg (every result whose title does not say
//     "uniform"), steal must beat dynamic outright and stay within
//     -guided-tol of guided at every thread count, and the geometric
//     mean of steal/guided across all imbalanced points must be <= 1 —
//     the "measurably faster" claim, robust to a single noisy point.
//   - On the uniform control leg, steal must stay within -uniform-tol
//     of static. The default tolerance is wide because the control's
//     regions are short (hundreds of microseconds) and steal pays its
//     seeding and probing there with nothing to balance: in repeated
//     t=2 runs on a 2-core host steal/static ranged 0.41-1.65 on this
//     leg (median 1.06, EXPERIMENTS.md). Any member preempted by the OS
//     is stolen from, and under an ownership strategy (keeper) those
//     steals manufacture foreign traffic.
//
// Exit status 0 when every claim holds, 1 with a per-violation listing
// otherwise.
//
// Usage:
//
//	schedcheck results/BENCH_sched.json
//	schedcheck -guided-tol 0.1 -uniform-tol 0.05 results/BENCH_sched.json
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"spray/internal/bench"
)

func main() {
	var (
		guidedTol  = flag.Float64("guided-tol", 0.20, "per-point slack for steal vs guided on imbalanced legs (0.20 = steal may be up to 20% slower at any single point; the geomean must still favor steal)")
		uniformTol = flag.Float64("uniform-tol", 0.60, "slack for steal vs static on the uniform control leg (see the command comment for why the default is wide)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: schedcheck [flags] BENCH_sched.json")
		os.Exit(2)
	}
	f, err := bench.ReadFile(flag.Arg(0))
	fatalIf(err)
	if f.Legacy() {
		fatalIf(fmt.Errorf("%s is a legacy schema-%d file; re-run spraybulk -workload imbalance", flag.Arg(0), f.Schema))
	}

	var violations []string
	var logGuided []float64 // ln(steal/guided) per imbalanced point
	var logDynamic []float64
	checked := 0
	for _, res := range f.Results {
		series := map[string][]bench.Point{}
		for _, s := range res.Series {
			series[kindOf(s.Name)] = s.Points
		}
		steal, ok := series["steal"]
		if !ok {
			continue // not a schedule-comparison result
		}
		uniform := strings.Contains(strings.ToLower(res.Title), "uniform")
		fmt.Printf("== %s ==\n", res.Title)
		for i, sp := range steal {
			th := int(sp.X)
			st := mean(series["static"], i)
			dy := mean(series["dynamic"], i)
			gu := mean(series["guided"], i)
			fmt.Printf("  t=%d  steal %s  static %s (x%.2f)  dynamic %s (x%.2f)  guided %s (x%.2f)\n",
				th, secs(sp.Time.Mean), secs(st), ratio(sp.Time.Mean, st),
				secs(dy), ratio(sp.Time.Mean, dy), secs(gu), ratio(sp.Time.Mean, gu))
			checked++
			if uniform {
				if st > 0 && sp.Time.Mean > st*(1+*uniformTol) {
					violations = append(violations, fmt.Sprintf(
						"%s t=%d: steal %.3gs vs static %.3gs exceeds the %.0f%% uniform tolerance",
						res.Title, th, sp.Time.Mean, st, *uniformTol*100))
				}
				continue
			}
			if dy > 0 {
				logDynamic = append(logDynamic, math.Log(sp.Time.Mean/dy))
				if sp.Time.Mean >= dy {
					violations = append(violations, fmt.Sprintf(
						"%s t=%d: steal %.3gs not faster than dynamic %.3gs",
						res.Title, th, sp.Time.Mean, dy))
				}
			}
			if gu > 0 {
				logGuided = append(logGuided, math.Log(sp.Time.Mean/gu))
				if sp.Time.Mean > gu*(1+*guidedTol) {
					violations = append(violations, fmt.Sprintf(
						"%s t=%d: steal %.3gs vs guided %.3gs exceeds the %.0f%% per-point tolerance",
						res.Title, th, sp.Time.Mean, gu, *guidedTol*100))
				}
			}
		}
	}
	if checked == 0 {
		fatalIf(fmt.Errorf("no schedule-comparison series (a 'steal' series) found in %s", flag.Arg(0)))
	}
	if g := geomean(logGuided); len(logGuided) > 0 {
		fmt.Printf("\nimbalanced-leg geomean: steal/guided %.3f, steal/dynamic %.3f\n", g, geomean(logDynamic))
		if g > 1 {
			violations = append(violations, fmt.Sprintf(
				"geomean steal/guided %.3f > 1: steal is not faster than guided across the imbalanced legs", g))
		}
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "\nschedcheck: %d violation(s):\n", len(violations))
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  -", v)
		}
		os.Exit(1)
	}
	fmt.Printf("schedcheck: all claims hold over %d points\n", checked)
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

func mean(pts []bench.Point, i int) float64 {
	if i >= len(pts) {
		return 0
	}
	return pts[i].Time.Mean
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func secs(v float64) string {
	return bench.FormatSeconds(v)
}

func geomean(logs []float64) float64 {
	if len(logs) == 0 {
		return 0
	}
	var sum float64
	for _, l := range logs {
		sum += l
	}
	return math.Exp(sum / float64(len(logs)))
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedcheck:", err)
		os.Exit(1)
	}
}
