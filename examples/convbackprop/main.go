// Convolution back-propagation: the paper's §VI-A workload end to end —
// differentiate a 1-D stencil (the reverse-mode sweep scatters into a
// neighborhood of each index, Figure 9) and use the gradient for a few
// steps of gradient descent on the stencil weights, with the scatter
// parallelized by SPRAY. Every step checks the parallel input gradient
// against the sequential sweep.
//
// Run: go run ./examples/convbackprop [-n 2000000] [-threads 4] [-steps 5]
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"spray"
	"spray/internal/conv"
	"spray/internal/num"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "convbackprop:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("convbackprop", flag.ContinueOnError)
	n := fs.Int("n", 2_000_000, "signal length")
	threads := fs.Int("threads", 4, "team size")
	steps := fs.Int("steps", 5, "gradient-descent steps")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 3 || *threads < 1 {
		return fmt.Errorf("need -n >= 3 and -threads >= 1, got %d and %d", *n, *threads)
	}

	rng := rand.New(rand.NewSource(3))
	in := make([]float32, *n)
	for i := range in {
		in[i] = rng.Float32()*2 - 1
	}
	// Ground truth: a smoothing kernel the model should recover.
	target := conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	wantOut := make([]float32, *n)
	target.Forward(in, wantOut)

	team := spray.NewTeam(*threads)
	defer team.Close()
	strategy := spray.BlockCAS(4096)

	model := conv.Weights3[float32]{WL: 0.1, WC: 0.8, WR: 0.1}
	out := make([]float32, *n)
	seed := make([]float32, *n)
	grad := make([]float32, *n)
	seqGrad := make([]float32, *n)

	fmt.Fprintf(stdout, "learning a 3-point kernel by gradient descent (%d elements, %d goroutines, %s)\n",
		*n, *threads, strategy)
	for step := 0; step < *steps; step++ {
		start := time.Now()
		model.Forward(in, out)
		// Loss = 0.5*Σ(out-want)²; seed = dLoss/dout.
		var loss float64
		for i := range out {
			d := out[i] - wantOut[i]
			seed[i] = d
			loss += 0.5 * float64(d) * float64(d)
		}
		// Input gradient via the parallel SPRAY scatter (Figure 9).
		clear(grad)
		model.Backprop(team, strategy, seed, grad)
		// Weight gradients (scalar reductions).
		var gl, gc, gr float64
		for i := 1; i < *n-1; i++ {
			gl += float64(seed[i]) * float64(in[i-1])
			gc += float64(seed[i]) * float64(in[i])
			gr += float64(seed[i]) * float64(in[i+1])
		}
		elapsed := time.Since(start)

		clear(seqGrad)
		model.BackpropSeq(seed, seqGrad)
		if d, scale := num.MaxAbsDiff(grad, seqGrad), maxAbs(seqGrad); d > 1e-5*scale {
			return fmt.Errorf("step %d: input gradient differs from the sequential sweep by %g (max |grad| %g)", step, d, scale)
		}

		lr := 1.0 / float64(*n)
		model.WL -= float32(lr * gl)
		model.WC -= float32(lr * gc)
		model.WR -= float32(lr * gr)
		fmt.Fprintf(stdout, "  step %d: loss %.4e  weights (%.3f %.3f %.3f)  [%v]\n",
			step, loss, model.WL, model.WC, model.WR, elapsed)
	}
	errW := math.Abs(float64(model.WL-target.WL)) +
		math.Abs(float64(model.WC-target.WC)) +
		math.Abs(float64(model.WR-target.WR))
	fmt.Fprintf(stdout, "input gradient matches the sequential sweep at every step\n")
	fmt.Fprintf(stdout, "final weight error: %.3f (target %.2f %.2f %.2f)\n", errW, target.WL, target.WC, target.WR)
	return nil
}

func maxAbs(v []float32) float64 {
	var m float64
	for _, x := range v {
		m = max(m, math.Abs(float64(x)))
	}
	return m
}
