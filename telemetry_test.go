package spray_test

import (
	"strings"
	"testing"

	"spray"
	"spray/internal/conv"
)

func TestInstrumentReportsRegionMetrics(t *testing.T) {
	const n, threads = 1 << 14, 2
	seed := convSeed(n)
	out := make([]float32, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Dense(), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()

	w := conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	const regions = 3
	for i := 0; i < regions; i++ {
		w.RunBackprop(team, r, seed)
	}
	rep := in.Report()
	// RunBackprop runs one update region; dense FinalizeWith adds a merge
	// region per call.
	if rep.Regions < regions {
		t.Errorf("regions = %d, want >= %d", rep.Regions, regions)
	}
	if rep.Strategy != "dense" || rep.Threads != threads {
		t.Errorf("identity %q/%d", rep.Strategy, rep.Threads)
	}
	if rep.Wall <= 0 {
		t.Errorf("wall = %v", rep.Wall)
	}
	if len(rep.Busy) != threads {
		t.Fatalf("busy slots = %d", len(rep.Busy))
	}
	for tid, b := range rep.Busy {
		if b <= 0 {
			t.Errorf("member %d busy = %v", tid, b)
		}
	}
	if li := rep.LoadImbalance(); li < 1.0 {
		t.Errorf("load imbalance %v < 1", li)
	}
	cm := rep.CounterMap()
	// The backprop combines each tile of up to 1024 seeds into one AddN
	// over the m+2 outputs the tile touches. Static splits the n-2
	// interior seeds into two halves of 8191, so a region runs 2·8 tiles
	// and pushes n-2 values plus 2 per tile.
	const tiles = 2 * 8
	wantElems := uint64(regions * (n - 2 + 2*tiles))
	if cm["bulk-elems"] != wantElems {
		t.Errorf("bulk-elems = %d, want %d", cm["bulk-elems"], wantElems)
	}
	if cm["addn-runs"] != regions*tiles {
		t.Errorf("addn-runs = %d, want %d", cm["addn-runs"], regions*tiles)
	}
	if rep.PeakBytes != int64(threads*n*4) {
		t.Errorf("peak bytes %d, want %d", rep.PeakBytes, threads*n*4)
	}

	s := rep.String()
	for _, want := range []string{"dense", "regions", "wall", "bulk-elems", "peak-bytes"} {
		if !strings.Contains(s, want) {
			t.Errorf("report table missing %q:\n%s", want, s)
		}
	}

	in.Reset()
	rep = in.Report()
	if rep.Regions != 0 || rep.Counters.Total() != 0 {
		t.Errorf("reset left regions=%d counters=%v", rep.Regions, rep.Counters.Map())
	}

	// PerThread must expose one snapshot per member.
	w.RunBackprop(team, r, seed)
	per := in.PerThread()
	if len(per) != threads {
		t.Fatalf("per-thread snapshots: %d", len(per))
	}
	for tid, ps := range per {
		if ps.Total() == 0 {
			t.Errorf("member %d recorded nothing", tid)
		}
	}
}

// TestInstrumentBlockCASUnderContention checks the acceptance shape: on a
// workload where every member touches a shared block, block-cas must
// report claim-CAS losses.
func TestInstrumentBlockCASUnderContention(t *testing.T) {
	const n, threads = 1 << 12, 4
	out := make([]float64, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.BlockCAS(64), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()

	spray.RunReduction(team, r, 0, n, spray.Static(),
		func(acc spray.Accessor[float64], from, to int) {
			acc.Add(0, 1) // everyone touches block 0: one claim, threads-1 losses
			for i := from; i < to; i++ {
				acc.Add(i, 1)
			}
		})
	cm := in.Report().CounterMap()
	if cm["cas-retries"] < threads-1 {
		t.Errorf("cas-retries = %d, want >= %d (shared block claim losses)",
			cm["cas-retries"], threads-1)
	}
	if cm["block-claims"] == 0 || cm["block-fallbacks"] == 0 {
		t.Errorf("claim/fallback counters empty: %v", cm)
	}
	if out[0] != float64(threads+1) {
		t.Errorf("out[0] = %v, want %d", out[0], threads+1)
	}
}

// TestInstrumentKeeperForeignTraffic checks the acceptance shape for the
// keeper: a cross-owner workload must report foreign enqueues, all drained
// at finalize.
func TestInstrumentKeeperForeignTraffic(t *testing.T) {
	const n, threads = 1 << 10, 4
	out := make([]float64, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Keeper(), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()

	// Every member writes the whole array: 3/4 of updates are foreign.
	spray.RunReduction(team, r, 0, n, spray.Static(),
		func(acc spray.Accessor[float64], from, to int) {
			for i := 0; i < n; i++ {
				acc.Add(i, 1)
			}
		})
	cm := in.Report().CounterMap()
	if cm["keeper-foreign"] == 0 {
		t.Fatal("no foreign enqueues on a cross-owner workload")
	}
	if cm["keeper-drained"] != cm["keeper-foreign"] {
		t.Errorf("drained %d of %d foreign enqueues", cm["keeper-drained"], cm["keeper-foreign"])
	}
	if cm["keeper-owned"] == 0 {
		t.Error("no owned updates counted")
	}
	for i := range out {
		if out[i] != threads {
			t.Fatalf("out[%d] = %v, want %d", i, out[i], threads)
		}
	}
}

func TestInstrumentDetachStopsCounting(t *testing.T) {
	const n, threads = 1 << 10, 2
	out := make([]float32, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Atomic(), out, threads)
	in := spray.Instrument(team, r)
	runOnce := func() {
		spray.RunReduction(team, r, 0, n, spray.Static(),
			func(acc spray.Accessor[float32], from, to int) {
				for i := from; i < to; i++ {
					acc.Add(i, 1)
				}
			})
	}
	runOnce()
	if in.Report().Counters.Total() == 0 {
		t.Fatal("attached instrumentation recorded nothing")
	}
	in.Detach()
	if team.Timing() != nil {
		t.Error("Detach left the timing attached")
	}
	before := in.Report().Counters.Total()
	runOnce()
	if got := in.Report().Counters.Total(); got != before {
		t.Errorf("detached reducer still counting: %d -> %d", before, got)
	}
}

func TestInstrumentCheckedReducerForwards(t *testing.T) {
	const n, threads = 256, 2
	out := make([]float64, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.Checked(spray.New(spray.Dense(), out, threads), n)
	in := spray.Instrument(team, r)
	defer in.Detach()
	spray.RunReduction(team, r, 0, n, spray.Static(),
		func(acc spray.Accessor[float64], from, to int) {
			for i := from; i < to; i++ {
				acc.Add(i, 1)
			}
		})
	if got := in.Report().CounterMap()["updates"]; got != n {
		t.Errorf("updates through Checked = %d, want %d", got, n)
	}
	if !strings.HasPrefix(in.Report().Strategy, "checked(") {
		t.Errorf("strategy %q", in.Report().Strategy)
	}
}

// TestInstrumentReusesExistingTiming: two reducers instrumented on one
// team share the team's timing accumulator instead of fighting over it.
func TestInstrumentReusesExistingTiming(t *testing.T) {
	const n, threads = 128, 2
	team := spray.NewTeam(threads)
	defer team.Close()
	r1 := spray.New(spray.Dense(), make([]float64, n), threads)
	r2 := spray.New(spray.Atomic(), make([]float64, n), threads)
	in1 := spray.Instrument(team, r1)
	in2 := spray.Instrument(team, r2)
	tm := team.Timing()
	if tm == nil {
		t.Fatal("no timing attached")
	}
	in2.Detach() // must not strip the timing in1 owns
	if team.Timing() != tm {
		t.Error("second Detach removed the shared timing")
	}
	in1.Detach()
	if team.Timing() != nil {
		t.Error("owner Detach left the timing")
	}
}

// TestInstrumentDetachCyclesClearTeamAttachments is the leak regression:
// per-benchmark-point Instrument/Detach churn must hand the team back
// exactly as it found it, with no timing or counter recorder left
// attached to keep a detached reducer's shards alive.
func TestInstrumentDetachCyclesClearTeamAttachments(t *testing.T) {
	const n, threads = 256, 2
	team := spray.NewTeam(threads)
	defer team.Close()
	for i := 0; i < 100; i++ {
		r := spray.New(spray.Atomic(), make([]float64, n), threads)
		in := spray.Instrument(team, r)
		if team.Timing() == nil || team.Recorder() == nil {
			t.Fatalf("cycle %d: Instrument did not attach timing and recorder", i)
		}
		// Every member writes the whole array: cross-owner CAS traffic.
		spray.RunReduction(team, r, 0, n, spray.Static(),
			func(acc spray.Accessor[float64], from, to int) {
				for i := 0; i < n; i++ {
					acc.Add(i, 1)
				}
			})
		in.Detach()
		if team.Timing() != nil || team.Recorder() != nil {
			t.Fatalf("cycle %d: Detach left team attachments (timing %v, recorder %v)",
				i, team.Timing() != nil, team.Recorder() != nil)
		}
	}
}

// BenchmarkTelemetryOverheadConv reports the conv backprop workload with
// telemetry off and on; the gap between the two flavors is the cost of
// instrumenting a region. `make overhead-smoke` runs both once.
func BenchmarkTelemetryOverheadConv(b *testing.B) {
	const n, threads = 1 << 20, 2
	seed := convSeed(n)
	out := make([]float32, n)
	w := conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	b.Run("off", func(b *testing.B) {
		team := spray.NewTeam(threads)
		defer team.Close()
		r := spray.New(spray.BlockCAS(1024), out, threads)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RunBackprop(team, r, seed)
		}
		b.SetBytes(int64(n * 4))
	})
	b.Run("on", func(b *testing.B) {
		team := spray.NewTeam(threads)
		defer team.Close()
		r := spray.New(spray.BlockCAS(1024), out, threads)
		in := spray.Instrument(team, r)
		defer in.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RunBackprop(team, r, seed)
		}
		b.SetBytes(int64(n * 4))
	})
}
