// Command sprayadvise records the access pattern of a sparse-reduction
// workload and recommends a SPRAY strategy, applying the paper's §VII
// guidance ("atomics where accesses are few and without contention,
// blocks where locality is high, keeper where updates match the static
// ownership") as measurable rules. Built-in workloads cover the paper's
// three test cases plus a contended histogram.
//
// Usage:
//
//	sprayadvise -workload conv
//	sprayadvise -workload tmv -threads 8
//	sprayadvise -workload all
//
// With -profile, the advisor instead reads sampled hot-line contention
// profiles (the JSON written by spraybulk/sprayall -hotprofile) and
// recommends a strategy per profile from the measured conflict classes,
// rates, and hot-line concentration:
//
//	spraybulk -workload conv -hotprofile hot.json
//	sprayadvise -profile hot.json
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"spray/internal/advisor"
	"spray/internal/hotspot"
	"spray/internal/par"
	"spray/internal/sparse"
)

func main() {
	var (
		workload = flag.String("workload", "all", "conv | tmv | graph | histogram | all")
		threads  = flag.Int("threads", 8, "threads the region would use")
		block    = flag.Int("block", 0, "block size for locality metrics (0 = spray default)")
		size     = flag.Int("n", 1_000_000, "problem size")
		profile  = flag.String("profile", "", "recommend from a sampled hot-line contention profile file instead of recording a workload")
	)
	flag.Parse()

	if *profile != "" {
		fromProfile(*profile)
		return
	}

	run := map[string]func(){
		"conv":      func() { conv(*size, *threads, *block) },
		"tmv":       func() { tmv(*size/10, *threads, *block) },
		"graph":     func() { graph(*size/10, *threads, *block) },
		"histogram": func() { histogram(*size, *threads, *block) },
	}
	if *workload == "all" {
		for _, name := range []string{"conv", "tmv", "graph", "histogram"} {
			run[name]()
		}
		return
	}
	fn, ok := run[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "sprayadvise: unknown workload %q\n", *workload)
		os.Exit(1)
	}
	fn()
}

// conv records the paper's Figure 9 stencil back-propagation.
func conv(n, threads, block int) {
	fmt.Printf("== conv back-propagation (N=%d) ==\n", n)
	r := advisor.NewRecorder(n, threads, block)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(1, n-1, tid, threads)
		tape := r.Tape(tid)
		for i := from; i < to; i++ {
			tape.Add(i-1, 1)
			tape.Add(i, 1)
			tape.Add(i+1, 1)
		}
	}
	fmt.Println(r.Analyze())
}

// tmv records the Figure 10 transpose-SpMV scatter on a banded matrix.
func tmv(rows, threads, block int) {
	fmt.Printf("== transpose-SpMV on banded matrix (%d rows) ==\n", rows)
	a := sparse.Banded[float64](rows, rows, 9, 200, 1)
	r := advisor.NewRecorder(a.Cols, threads, block)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(0, a.Rows, tid, threads)
		tape := r.Tape(tid)
		for i := from; i < to; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				tape.Add(int(a.Col[k]), 1)
			}
		}
	}
	fmt.Println(r.Analyze())
}

// graph records a PageRank-style push over a power-law graph.
func graph(nodes, threads, block int) {
	fmt.Printf("== graph push (PageRank-style, %d nodes) ==\n", nodes)
	g := sparse.Graph[float64](nodes, 8, 2)
	r := advisor.NewRecorder(nodes, threads, block)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(0, g.Rows, tid, threads)
		tape := r.Tape(tid)
		for u := from; u < to; u++ {
			for k := g.RowPtr[u]; k < g.RowPtr[u+1]; k++ {
				tape.Add(int(g.Col[k]), 1)
			}
		}
	}
	rep := r.Analyze()
	fmt.Println(rep)
	if hot := r.TopConflicts(5); len(hot) > 0 {
		fmt.Printf("hottest shared indices: %v\n\n", hot)
	}
}

// histogram records a skewed binning workload (the Figure 5 pattern).
func histogram(samples, threads, block int) {
	const bins = 1 << 16
	fmt.Printf("== skewed histogram (%d samples into %d bins) ==\n", samples, bins)
	rng := rand.New(rand.NewSource(7))
	keys := make([]int32, samples)
	for i := range keys {
		if rng.Intn(10) != 0 {
			keys[i] = int32(rng.Intn(bins / 100))
		} else {
			keys[i] = int32(rng.Intn(bins))
		}
	}
	r := advisor.NewRecorder(bins, threads, block)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(0, samples, tid, threads)
		tape := r.Tape(tid)
		for i := from; i < to; i++ {
			tape.Add(int(keys[i]), 1)
		}
	}
	fmt.Println(r.Analyze())
}

// fromProfile loads sampled contention profiles and prints one
// profile-guided recommendation per entry.
func fromProfile(path string) {
	profiles, err := hotspot.ReadProfiles(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprayadvise:", err)
		os.Exit(1)
	}
	for _, p := range profiles {
		fmt.Printf("== %s (N=%d, t=%d) ==\n", p.Strategy, p.N, p.Threads)
		total := p.TotalConflicts()
		fmt.Printf("updates            %d\n", p.Updates)
		fmt.Printf("conflict events    %d", total)
		if cls, w := p.DominantClass(); cls != "" {
			fmt.Printf(" (dominant %s: %d)", cls, w)
		}
		fmt.Println()
		if top := p.TopLines(5); len(top) > 0 {
			fmt.Printf("hottest lines      ")
			for i, l := range top {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Printf("line %d (idx %d, %d)", l.Line, l.Index, l.Count)
			}
			fmt.Printf("\nconcentration      %.0f%% of sampled weight in the top 16 lines\n",
				100*advisor.ProfileConcentration(p, 16))
		}
		rec := advisor.RecommendFromProfile(p)
		fmt.Printf("recommendation     %s — %s\n\n", rec.Strategy, rec.Reason)
	}
}
