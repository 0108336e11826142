package conv

import (
	"fmt"
	"math/rand"
	"testing"

	"spray"
)

// backpropSeqCombined is the tile-combined sequential loop: the same
// per-tile combine as RunBackprop, added straight into out. It is the
// honest sequential competitor of the bulk path, which does the combine
// plus a reducer run per tile.
func (w Weights3[T]) backpropSeqCombined(seed, out []T) {
	var buf [backpropTile + 2]T
	for t0 := 1; t0 < len(seed)-1; t0 += backpropTile {
		s := seed[t0:min(t0+backpropTile, len(seed)-1)]
		v := buf[:len(s)+2]
		w.combine(v, s)
		dst := out[t0-1 : t0-1+len(v)]
		for k, x := range v {
			dst[k] += x
		}
	}
}

func TestBackpropSeqCombinedMatches(t *testing.T) {
	w := Weights3[float64]{WL: 3, WC: -2, WR: 5}
	for _, n := range []int{3, 4, backpropTile + 1, backpropTile + 2, 2*backpropTile + 3} {
		seed := randSeed(n, int64(n))
		want, got := make([]float64, n), make([]float64, n)
		w.BackpropSeq(seed, want)
		w.backpropSeqCombined(seed, got)
		equalBits(t, got, want)
	}
}

// BenchmarkConvBackprop sets the bulk conv back-propagation beside its
// sequential competitors at the benchmark's conv size, n = 2¹⁸ float32:
// the Figure 9 loop, the tile-combined sequential loop, and RunBackprop
// through a reused keeper at 1 and 2 members. One op is one sweep.
func BenchmarkConvBackprop(b *testing.B) {
	const n = 1 << 18
	w := Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	rng := rand.New(rand.NewSource(1))
	seed := make([]float32, n)
	for i := range seed {
		seed[i] = rng.Float32()
	}
	out := make([]float32, n)
	b.Run("seq-fig9", func(b *testing.B) {
		for range b.N {
			w.BackpropSeq(seed, out)
		}
	})
	b.Run("seq-combined", func(b *testing.B) {
		for range b.N {
			w.backpropSeqCombined(seed, out)
		}
	})
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("keeper-t%d", threads), func(b *testing.B) {
			team := spray.NewTeam(threads)
			defer team.Close()
			r := spray.New(spray.Keeper(), out, threads)
			w.RunBackprop(team, r, seed)
			b.ResetTimer()
			for range b.N {
				w.RunBackprop(team, r, seed)
			}
		})
	}
}
