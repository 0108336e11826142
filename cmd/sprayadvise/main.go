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
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"spray/internal/advisor"
	"spray/internal/par"
	"spray/internal/sparse"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sprayadvise", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "all", "conv | tmv | graph | histogram | all")
		threads  = fs.Int("threads", 8, "threads the region would use")
		block    = fs.Int("block", 0, "block size for locality metrics (0 = spray default)")
		size     = fs.Int("n", 1_000_000, "problem size")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	workloads := map[string]func(){
		"conv":      func() { conv(stdout, *size, *threads, *block) },
		"tmv":       func() { tmv(stdout, *size/10, *threads, *block) },
		"graph":     func() { graph(stdout, *size/10, *threads, *block) },
		"histogram": func() { histogram(stdout, *size, *threads, *block) },
	}
	if *workload == "all" {
		for _, name := range []string{"conv", "tmv", "graph", "histogram"} {
			workloads[name]()
		}
		return 0
	}
	fn, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "sprayadvise: unknown workload %q\n", *workload)
		return 1
	}
	fn()
	return 0
}

// conv records the paper's Figure 9 stencil back-propagation.
func conv(w io.Writer, n, threads, block int) {
	fmt.Fprintf(w, "== conv back-propagation (N=%d) ==\n", n)
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
	fmt.Fprintln(w, r.Analyze())
}

// tmv records the Figure 10 transpose-SpMV scatter on a banded matrix.
func tmv(w io.Writer, rows, threads, block int) {
	fmt.Fprintf(w, "== transpose-SpMV on banded matrix (%d rows) ==\n", rows)
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
	fmt.Fprintln(w, r.Analyze())
}

// graph records a PageRank-style push over a power-law graph.
func graph(w io.Writer, nodes, threads, block int) {
	fmt.Fprintf(w, "== graph push (PageRank-style, %d nodes) ==\n", nodes)
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
	fmt.Fprintln(w, rep)
	if hot := r.TopConflicts(5); len(hot) > 0 {
		fmt.Fprintf(w, "hottest shared indices: %v\n\n", hot)
	}
}

// histogram records a skewed binning workload (the Figure 5 pattern).
func histogram(w io.Writer, samples, threads, block int) {
	const bins = 1 << 16
	fmt.Fprintf(w, "== skewed histogram (%d samples into %d bins) ==\n", samples, bins)
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
	fmt.Fprintln(w, r.Analyze())
}
