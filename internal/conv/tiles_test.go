package conv

import (
	"fmt"
	"testing"

	"spray"
	"spray/internal/par"
)

// The bulk back-propagations combine each tile's taps into one run per
// output. These tests pin the tile edges: a one-seed tile (Dynamic(1)
// chunks), a tile of one seed past a full tile, chunks that end inside a
// tile, and stencils wider than the remaining seeds. Integer-valued
// seeds and taps make every summation order exact, so each case must
// match the sequential sweep bitwise.

// tileSchedules are the schedules of the tile-edge cases.
var tileSchedules = []spray.Schedule{spray.Static(), spray.Dynamic(1), spray.Guided(1), spray.Steal(0)}

// tileLens are the 1-D lengths of the tile-edge cases beyond the
// stencil's own minimum widths.
var tileLens = []int{backpropTile + 1, backpropTile + 2, 2*backpropTile + 3}

// forEachTileCase runs fn for every strategy × schedule × team size
// of 1–3 members, with a fresh team per size.
func forEachTileCase(t *testing.T, fn func(t *testing.T, team *spray.Team, st spray.Strategy, sched spray.Schedule)) {
	for threads := 1; threads <= 3; threads++ {
		team := spray.NewTeam(threads)
		for _, st := range spray.AllStrategies() {
			for _, sched := range tileSchedules {
				t.Run(fmt.Sprintf("%s/%s/t%d", st, sched, threads), func(t *testing.T) {
					fn(t, team, st, sched)
				})
			}
		}
		team.Close()
	}
}

func equalBits(t *testing.T, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestWeights3TileEdgesMatchSequential(t *testing.T) {
	w := Weights3[float64]{WL: 3, WC: -2, WR: 5}
	for _, n := range append([]int{3, 4}, tileLens...) {
		seed := randSeed(n, int64(n))
		want := make([]float64, n)
		w.BackpropSeq(seed, want)
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			forEachTileCase(t, func(t *testing.T, team *spray.Team, st spray.Strategy, sched spray.Schedule) {
				out := make([]float64, n)
				w.RunBackpropSched(team, spray.New(st, out, team.Size()), seed, sched)
				equalBits(t, out, want)
			})
		})
	}
}

func TestStencilTileEdgesMatchSequential(t *testing.T) {
	for _, s := range []Stencil[float64]{
		{Taps: []float64{1, -2, 3, -1, 2}},
		{Taps: []float64{2, 1, -3, 4, -1, 1, -2}},
	} {
		width := len(s.Taps)
		for _, n := range append([]int{width, width + 1}, tileLens...) {
			seed := randSeed(n, int64(n+width))
			want := make([]float64, n)
			s.BackpropSeq(seed, want)
			r := s.Radius()
			t.Run(fmt.Sprintf("r%d/n%d", r, n), func(t *testing.T) {
				forEachTileCase(t, func(t *testing.T, team *spray.Team, st spray.Strategy, sched spray.Schedule) {
					out := make([]float64, n)
					red := spray.New(st, out, team.Size())
					spray.RunReduction(team, red, r, n-r, sched, s.backpropTiles(seed))
					equalBits(t, out, want)
				})
			})
		}
	}
}

func TestStencil2DTileEdgesMatchSequential(t *testing.T) {
	box5 := Stencil2D[float64]{Taps: [][]float64{
		{1, 0, -2, 1, 3},
		{0, 2, 1, -1, 0},
		{-3, 1, 4, 1, 2},
		{1, -1, 0, 2, 1},
		{2, 1, -2, 0, 1},
	}}
	for _, s := range []Stencil2D[float64]{cross2D, box5} {
		r := s.Radius()
		// Interior row counts of 1, 4, 5 and 7 leave a remainder under
		// 2 and 3 members; the narrow grid has one interior column at
		// r = 1 and none at r = 2.
		for _, g := range [][2]int{{2*r + 1, 2*r + 1}, {2*r + 4, 9}, {2*r + 5, 2*r + 2}, {2*r + 7, 13}, {7, max(3, 2*r)}} {
			rows, cols := g[0], g[1]
			seed := grid(rows, cols, int64(rows*cols))
			want := make([]float64, rows*cols)
			s.BackpropSeq(seed, want, rows, cols)
			t.Run(fmt.Sprintf("r%d/%dx%d", r, rows, cols), func(t *testing.T) {
				forEachTileCase(t, func(t *testing.T, team *spray.Team, st spray.Strategy, sched spray.Schedule) {
					out := make([]float64, rows*cols)
					red := spray.New2D(st, out, rows, cols, team.Size())
					spray.RunReduction2D(team, red, r, rows-r, sched, s.backpropRows(seed, cols))
					equalBits(t, out, want)
				})
			})
		}
	}
}

// TestBackpropOneRunPerTile pins the combined tiles' update count: each
// tile of m seeds is one AddN of m+2 values, so a return to one run per
// tap triples addn-runs and fails here.
func TestBackpropOneRunPerTile(t *testing.T) {
	const n = 3*backpropTile + 5
	w := Weights3[float64]{WL: 1, WC: 2, WR: 3}
	seed := randSeed(n, 9)
	for threads := 1; threads <= 3; threads++ {
		for _, sched := range []spray.Schedule{spray.Static(), spray.Dynamic(1)} {
			tiles := n - 2 // Dynamic(1): one seed per chunk, so one tile each
			if sched == spray.Static() {
				tiles = 0
				for tid := 0; tid < threads; tid++ {
					from, to := par.StaticRange(1, n-1, tid, threads)
					tiles += (to - from + backpropTile - 1) / backpropTile
				}
			}
			team := spray.NewTeam(threads)
			red := spray.New(spray.Keeper(), make([]float64, n), threads)
			in := spray.Instrument(team, red)
			w.RunBackpropSched(team, red, seed, sched)
			cm := in.Report().CounterMap()
			in.Detach()
			team.Close()
			if got := cm["addn-runs"]; got != uint64(tiles) {
				t.Errorf("%s t%d: addn-runs = %d, want %d tiles", sched, threads, got, tiles)
			}
			if got, want := cm["bulk-elems"], uint64(n-2+2*tiles); got != want {
				t.Errorf("%s t%d: bulk-elems = %d, want %d", sched, threads, got, want)
			}
		}
	}
}
