package spray_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"spray"
	"spray/internal/telemetry"
)

// crossOwnerRun drives one region where every member writes the whole
// array — the workload shape that exercises atomic CAS traffic, block
// claims and fallbacks, and keeper foreign queues alike.
func crossOwnerRun(team *spray.Team, r spray.Reducer[float64], n int) {
	spray.RunReduction(team, r, 0, n, spray.Static(),
		func(acc spray.Accessor[float64], from, to int) {
			for i := 0; i < n; i++ {
				acc.Add(i, 1)
			}
		})
}

// TestRegionReportLatencyPercentiles is the tentpole acceptance check:
// for each sampling strategy the report must carry a populated latency
// histogram and render its percentiles.
func TestRegionReportLatencyPercentiles(t *testing.T) {
	const n, threads = 1 << 10, 4
	cases := []struct {
		strategy spray.Strategy
		kind     telemetry.HKind
	}{
		{spray.Atomic(), telemetry.CASLatency},
		{spray.BlockCAS(64), telemetry.ClaimLatency},
		{spray.Keeper(), telemetry.KeeperDwell},
	}
	for _, c := range cases {
		t.Run(c.kind.String(), func(t *testing.T) {
			team := spray.NewTeam(threads)
			defer team.Close()
			r := spray.New(c.strategy, make([]float64, n), threads)
			in := spray.Instrument(team, r)
			defer in.Detach()
			crossOwnerRun(team, r, n)

			rep := in.Report()
			h := rep.Latencies[c.kind]
			if h.Count == 0 {
				t.Fatalf("%s histogram empty after a cross-owner region", c.kind)
			}
			if h.P50() <= 0 || h.P99() < h.P50() || h.MaxLatency() < h.P99() {
				t.Errorf("implausible percentiles p50=%v p99=%v max=%v", h.P50(), h.P99(), h.MaxLatency())
			}
			table := rep.String()
			if !strings.Contains(table, c.kind.String()) || !strings.Contains(table, "p50=") {
				t.Errorf("report table missing %s percentiles:\n%s", c.kind, table)
			}

			in.Reset()
			if in.Report().Latencies[c.kind].Count != 0 {
				t.Error("reset left latency samples")
			}
		})
	}
}

// TestInstrumentationTraceEndToEnd drives the full trace lifecycle:
// enable, run, export, validate the Chrome JSON, detach.
func TestInstrumentationTraceEndToEnd(t *testing.T) {
	const n, threads = 1 << 10, 2
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Keeper(), make([]float64, n), threads)
	in := spray.Instrument(team, r)
	defer in.Detach()

	var buf bytes.Buffer
	if err := in.WriteTrace(&buf); err == nil {
		t.Fatal("WriteTrace before EnableTrace did not error")
	}
	in.EnableTrace(0)
	if in.Tracer() == nil || team.Tracer() != in.Tracer() {
		t.Fatal("EnableTrace did not attach a tracer to the team")
	}
	in.EnableTrace(0) // idempotent

	const regions = 3
	for i := 0; i < regions; i++ {
		crossOwnerRun(team, r, n)
	}
	if err := in.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}

	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	begins, ends := map[string]int{}, map[string]int{}
	tids := map[int]bool{}
	for _, e := range trace.TraceEvents {
		switch e.Ph {
		case "B":
			begins[e.Name]++
		case "E":
			ends[e.Name]++
		}
		if e.Ph != "M" {
			tids[e.Tid] = true
		}
	}
	for _, span := range []string{"region", "chunk", "drain"} {
		if begins[span] == 0 {
			t.Errorf("no %s spans in trace (begins: %v)", span, begins)
		}
		if begins[span] != ends[span] {
			t.Errorf("%s spans unbalanced: %d begins, %d ends", span, begins[span], ends[span])
		}
	}
	// Each RunReduction runs the update region plus the keeper drain
	// region, on every member.
	if want := 2 * regions * threads; begins["region"] != want {
		t.Errorf("region spans = %d, want %d", begins["region"], want)
	}
	if len(tids) != threads {
		t.Errorf("trace covers %d member timelines, want %d", len(tids), threads)
	}

	rep := in.Report()
	if rep.Counters.Get(telemetry.TraceDropped) != in.Tracer().Dropped() {
		t.Errorf("trace-dropped counter %d != tracer drops %d",
			rep.Counters.Get(telemetry.TraceDropped), in.Tracer().Dropped())
	}

	in.Detach()
	if team.Tracer() != nil {
		t.Error("Detach left the tracer attached to the team")
	}
	if err := in.WriteTrace(&bytes.Buffer{}); err != nil {
		t.Errorf("WriteTrace after Detach should keep working: %v", err)
	}
}

// TestInstrumentDetachCyclesClearTeamAttachments is the leak regression:
// per-benchmark-point Instrument/Detach churn must hand the team back
// exactly as it found it, with no timing, tracer or counter recorder
// left attached to keep a detached reducer's shards alive.
func TestInstrumentDetachCyclesClearTeamAttachments(t *testing.T) {
	const n, threads = 256, 2
	team := spray.NewTeam(threads)
	defer team.Close()
	for i := 0; i < 100; i++ {
		r := spray.New(spray.Atomic(), make([]float64, n), threads)
		in := spray.Instrument(team, r)
		in.EnableTrace(16)
		if team.Timing() == nil || team.Tracer() == nil || team.Recorder() == nil {
			t.Fatalf("cycle %d: Instrument did not attach timing, tracer and recorder", i)
		}
		crossOwnerRun(team, r, n)
		in.Detach()
		if team.Timing() != nil || team.Tracer() != nil || team.Recorder() != nil {
			t.Fatalf("cycle %d: Detach left team attachments (timing %v, tracer %v, recorder %v)",
				i, team.Timing() != nil, team.Tracer() != nil, team.Recorder() != nil)
		}
	}
}
