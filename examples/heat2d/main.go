// Heat2D: adjoint sensitivity analysis of a 2-D diffusion solve, using
// the multi-dimensional extension (spray.Reducer2D) the paper lists as
// future work.
//
// A linear 5-point diffusion stencil is stepped K times from an initial
// temperature field; the objective is the final temperature at a probe
// point. Reverse-mode differentiation of each step is the transposed
// stencil — a 2-D scatter parallelized by SPRAY — and because the
// operator is linear, K adjoint sweeps of the probe indicator give the
// exact gradient of the objective with respect to the *entire* initial
// condition in one backward pass. The program verifies the gradient
// against a finite-difference directional derivative.
//
// Run: go run ./examples/heat2d [-n 400] [-steps 50] [-threads 4]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"spray"
	"spray/internal/conv"
)

const alpha = 0.1 // diffusion number (stable: <= 0.25)

// diffusion is the explicit 5-point scheme u' = u + alpha*laplacian(u).
var diffusion = conv.Stencil2D[float64]{Taps: [][]float64{
	{0, alpha, 0},
	{alpha, 1 - 4*alpha, alpha},
	{0, alpha, 0},
}}

// forward advances the rows×cols field n steps (interior only;
// boundaries held).
func forward(u []float64, rows, cols, n int) []float64 {
	cur := append([]float64(nil), u...)
	next := make([]float64, len(u))
	for s := 0; s < n; s++ {
		copy(next, cur) // keep boundary values
		diffusion.Forward(cur, next, rows, cols)
		cur, next = next, cur
	}
	return cur
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "heat2d:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("heat2d", flag.ContinueOnError)
	side := fs.Int("n", 400, "grid side (the grid is n×n)")
	steps := fs.Int("steps", 50, "diffusion steps")
	threads := fs.Int("threads", 4, "team size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *side < 16 || *steps < 1 || *threads < 1 {
		return fmt.Errorf("need -n >= 16, -steps >= 1 and -threads >= 1, got %d, %d and %d", *side, *steps, *threads)
	}
	rows, cols := *side, *side

	team := spray.NewTeam(*threads)
	defer team.Close()
	strategy := spray.BlockCAS(4096)

	// Initial condition: a hot square off-center, rows [3n/8, n/2) and
	// columns [n/4, 3n/8).
	u0 := make([]float64, rows*cols)
	for i := 3 * rows / 8; i < rows/2; i++ {
		for j := cols / 4; j < 3*cols/8; j++ {
			u0[i*cols+j] = 100
		}
	}
	probe := (rows/2+2)*cols + 5*cols/16 // two cells below the hot square's edge

	start := time.Now()
	uT := forward(u0, rows, cols, *steps)
	fwdTime := time.Since(start)
	fmt.Fprintf(stdout, "forward %d steps on %dx%d grid: %v (probe temperature %.4f)\n",
		*steps, rows, cols, fwdTime, uT[probe])

	// Adjoint: seed the probe, scatter backwards through each step with
	// a 2-D SPRAY reduction. grad = (Sᵀ)^steps e_probe.
	grad := make([]float64, rows*cols)
	grad[probe] = 1
	start = time.Now()
	next := make([]float64, rows*cols)
	for s := 0; s < *steps; s++ {
		clear(next)
		diffusion.Backprop(team, strategy, grad, next, rows, cols)
		grad, next = next, grad
	}
	adjTime := time.Since(start)
	fmt.Fprintf(stdout, "adjoint %d steps (%s): %v\n", *steps, strategy, adjTime)

	// Verify: <grad, delta> must equal the directional derivative of the
	// probe objective along a random perturbation (exactly, up to float
	// error, since the operator is linear).
	rng := rand.New(rand.NewSource(1))
	delta := make([]float64, rows*cols)
	for i := range delta {
		delta[i] = rng.Float64() - 0.5
	}
	var dot float64
	for i := range grad {
		dot += grad[i] * delta[i]
	}
	pert := make([]float64, rows*cols)
	for i := range pert {
		pert[i] = u0[i] + delta[i]
	}
	dirDeriv := forward(pert, rows, cols, *steps)[probe] - uT[probe]
	fmt.Fprintf(stdout, "adjoint <grad,delta> = %.10f\n", dot)
	fmt.Fprintf(stdout, "finite difference    = %.10f\n", dirDeriv)
	rel := (dot - dirDeriv) / dirDeriv
	v := verdict(rel)
	fmt.Fprintf(stdout, "relative error %.2e — adjoint gradient %s\n", rel, v)
	if v != "verified" {
		return errors.New("adjoint gradient does not match the finite difference")
	}
	return nil
}

func verdict(rel float64) string {
	if rel < 1e-8 && rel > -1e-8 {
		return "verified"
	}
	return "MISMATCH"
}
