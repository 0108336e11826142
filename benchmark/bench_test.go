package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spray"
	"spray/internal/sparse"
	"spray/internal/telemetry"
)

// smokeParams runs every workload on shrunken inputs for a handful of
// steps.
var smokeParams = params{seconds: 1e-3, setups: 1, warmup: 2, allocSteps: 2, emptyRuns: 10, minSteps: 6, small: true}

type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload untraced and traced and checks the output
// against BENCHMARK.json: each printed metric is declared there with the
// same unit, a direction and (end-to-end) a bound, every declared metric
// is printed, and the last line is the result object.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	type decl struct {
		unit, better string
		bound        *float64
	}
	e2e, layer := map[string]decl{}, map[string]decl{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = decl{m.Unit, m.Better, m.Bound}
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = decl{m.Unit, m.Better, nil}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var code []string
	for _, w := range workloads {
		code = append(code, w.name)
	}
	if strings.Join(names, ",") != strings.Join(code, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, code)
	}

	ws := make([]*workload, len(workloads))
	for i := range workloads {
		ws[i] = &workloads[i]
	}
	for _, traced := range []bool{false, true} {
		declared := e2e
		spans := ""
		if traced {
			declared = layer
			spans = filepath.Join(t.TempDir(), "spans.json")
		}
		var out strings.Builder
		ok, err := runAll(ws, 1, smokeParams, traced, spans, &out)
		if err != nil || !ok {
			t.Fatalf("traced=%v: ok=%v err=%v\n%s", traced, ok, err, out.String())
		}
		printed := map[string]int{}
		var last string
		sc := bufio.NewScanner(strings.NewReader(out.String()))
		for sc.Scan() {
			line := sc.Text()
			last = line
			f := strings.Fields(line)
			if len(f) != 4 || strings.HasPrefix(line, "#") {
				continue
			}
			name, unit := f[1], f[3]
			d, found := declared[name]
			switch {
			case !metricName.MatchString(name):
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", name)
			case !found:
				t.Errorf("traced=%v: metric %s is not declared in BENCHMARK.json", traced, name)
			case d.unit != unit:
				t.Errorf("metric %s printed with unit %s, declared %s", name, unit, d.unit)
			case d.better != "higher" && d.better != "lower":
				t.Errorf("metric %s has direction %q", name, d.better)
			case !traced && (d.bound == nil || *d.bound <= 0 || *d.bound > 0.25):
				t.Errorf("metric %s has no bound in (0, 0.25]", name)
			}
			if _, err := strconv.ParseFloat(f[2], 64); err != nil {
				t.Errorf("metric %s value %q: %v", name, f[2], err)
			}
			printed[name]++
		}
		for name := range declared {
			if printed[name] != len(workloads) {
				t.Errorf("traced=%v: %s printed for %d of %d workloads", traced, name, printed[name], len(workloads))
			}
		}
		var obj jsonResult
		if err := json.Unmarshal([]byte(last), &obj); err != nil {
			t.Fatalf("last line is not the result object: %v\n%s", err, last)
		}
		if !obj.Correct || obj.Failed != 0 || obj.Attempted < 1 || len(obj.Metrics) != len(declared) {
			t.Errorf("result object %+v", obj)
		}
		if traced {
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &file); err != nil || len(file.TraceEvents) == 0 {
				t.Errorf("span file: %d events, err %v", len(file.TraceEvents), err)
			}
		}
	}
}

// stubInst is an instance whose steps and checks do nothing.
type stubInst struct{ tm *spray.Team }

func (s stubInst) team() *spray.Team { return s.tm }
func (stubInst) parStep()            {}
func (stubInst) seqStep()            {}
func (stubInst) check() bool         { return true }
func (stubInst) peakBytes() int64    { return 0 }
func (stubInst) updates() int64      { return 0 }
func (stubInst) close()              {}

// TestLoopAllocatesNothing checks that the timed loop itself (with and
// without the tracer), the benchmark-owned sequential controls and the
// checks allocate nothing, so the heap work of a run is the program's.
func TestLoopAllocatesNothing(t *testing.T) {
	team := spray.NewTeam(threads)
	defer team.Close()
	stub := stubInst{team}
	var res result
	s := newSamples(200)
	tr := newTracer(team, 400)
	for _, trc := range []*tracer{nil, tr} {
		allocs := testing.AllocsPerRun(2, func() {
			s.par, s.seq = s.par[:0], s.seq[:0]
			res.loop(stub, 0, 100, trc, &s)
		})
		if allocs != 0 {
			t.Errorf("loop (traced=%v) allocates %v times per run", trc != nil, allocs)
		}
	}
	for i := range workloads {
		w := &workloads[i]
		inst, _ := w.setup(1, true)
		step := func() { inst.check() }
		if _, ok := inst.(*reduceInst); ok {
			step = func() { inst.seqStep(); inst.check() }
		}
		if allocs := testing.AllocsPerRun(5, step); allocs != 0 {
			t.Errorf("%s: control and check allocate %v times per step", w.name, allocs)
		}
		inst.close()
	}
}

// dropOne wraps a reducer so that member 0 loses the first element of
// its first bulk update in every region.
type dropOne struct {
	spray.Reducer[float32]
	acc dropAcc
}

type dropAcc struct {
	spray.BulkAccessor[float32]
	dropped bool
}

func (d *dropOne) Private(tid int) spray.Accessor[float32] {
	acc := spray.Bulk(d.Reducer.Private(tid))
	if tid != 0 {
		return acc
	}
	d.acc = dropAcc{BulkAccessor: acc}
	return &d.acc
}

func (a *dropAcc) AddN(base int, vals []float32) {
	if !a.dropped && len(vals) > 0 {
		a.dropped = true
		base, vals = base+1, vals[1:]
	}
	a.BulkAccessor.AddN(base, vals)
}

func TestDroppedUpdateRaisesErrorRate(t *testing.T) {
	w, _ := findWorkload("conv-bulk")
	inst, _ := w.setup(1, true)
	defer inst.close()
	ri := inst.(*reduceInst)
	s := newSamples(8)
	var clean result
	clean.loop(inst, 0, 4, nil, &s)
	if clean.errorRate() != 0 {
		t.Fatalf("unwrapped reducer: error rate %v", clean.errorRate())
	}
	ri.setWrap(func(r spray.Reducer[float32]) spray.Reducer[float32] { return &dropOne{Reducer: r} })
	s = newSamples(8)
	var lossy result
	lossy.loop(inst, 0, 4, nil, &s)
	if lossy.errorRate() <= 0 {
		t.Fatalf("reducer dropping one update: error rate %v, want > 0", lossy.errorRate())
	}
}

func TestWrapExposesMidDrainOnlyWhenInnerHasIt(t *testing.T) {
	team := spray.NewTeam(threads)
	defer team.Close()
	tr := newTracer(team, 1)
	out := make([]float32, 64)
	if _, ok := tr.wrap(spray.New(spray.Keeper(), out, threads)).(midDrainer); !ok {
		t.Error("wrapped keeper hides DrainMid")
	}
	if _, ok := tr.wrap(spray.New(spray.BlockCAS(1024), out, threads)).(midDrainer); ok {
		t.Error("wrapped block-cas exposes a DrainMid it does not have")
	}
}

// TestTracedReducerBitwise checks that the wrapper changes nothing: on
// integer-valued data, where every summation order gives the same bits,
// the wrapped reducer's output equals the unwrapped one's. The chunked
// schedule makes keeper publish foreign parcels, so its mid-region drains
// must reach the inner reducer through the wrapper.
func TestTracedReducerBitwise(t *testing.T) {
	a := bandedCSR(4000, 21, 60, 1)
	for k := range a.Val {
		a.Val[k] = float32(k%7 + 1)
	}
	x := make([]float32, a.Rows)
	for i := range x {
		x[i] = float32(i%5 - 2)
	}
	team := spray.NewTeam(threads)
	defer team.Close()
	sched := spray.StaticChunk(64)
	for _, st := range []spray.Strategy{spray.Keeper(), spray.BlockCAS(1024)} {
		plain := make([]float32, a.Rows)
		r := spray.New(st, plain, threads)
		for range 3 {
			sparse.RunTMulVecSched(team, r, a, x, sched)
		}
		traced := make([]float32, a.Rows)
		tr := newTracer(team, 3)
		wr := tr.wrap(spray.New(st, traced, threads))
		for range 3 {
			tr.beginStep()
			sparse.RunTMulVecSched(team, wr, a, x, sched)
			tr.endStep()
		}
		for i := range plain {
			if math.Float32bits(plain[i]) != math.Float32bits(traced[i]) {
				t.Fatalf("%s: element %d is %v wrapped, %v unwrapped", st, i, traced[i], plain[i])
			}
		}
		if st == spray.Keeper() {
			drains := 0
			for i := range tr.members {
				for _, s := range tr.members[i].spans {
					if s.kind == spanDrain {
						drains++
					}
				}
			}
			if drains == 0 || tr.rec.Snapshot().Get(telemetry.KeeperMidDrains) == 0 {
				t.Errorf("keeper: %d DrainMid calls through the wrapper, %d mid-region drains",
					drains, tr.rec.Snapshot().Get(telemetry.KeeperMidDrains))
			}
		}
	}
}

// TestLedgerAddsUp checks on full-size inputs that every traced step's
// parts are non-negative and leave at most 1% of its wall time
// unaccounted, and that the wrapper counts exactly the workload's
// updates. The residual is the return path after FinalizeWith; a step in
// which the host preempts the stepping goroutine on that path may exceed 1%, so one
// step in ten is let through.
func TestLedgerAddsUp(t *testing.T) {
	p := params{seconds: 1e-3, setups: 1, warmup: 2, allocSteps: 1, emptyRuns: 1, minSteps: 20}
	for _, name := range []string{"conv-bulk", "conv-oneshot", "tmv-banded"} {
		w, _ := findWorkload(name)
		res := runWorkload(w, 1, p, true)
		if res.failed != 0 {
			t.Fatalf("%s: %d failed checks", name, res.failed)
		}
		over := 0
		for i, l := range res.tracer.ledgers {
			parts := []int64{l.new, l.dispatch, l.private, l.body, l.done, l.joinWait, l.join, l.finalize, l.residual()}
			for _, p := range parts {
				if p < 0 {
					t.Fatalf("%s step %d: negative part in %+v", name, i, l)
				}
			}
			if l.residualShare() > 0.01 {
				over++
			}
		}
		if n := len(res.tracer.ledgers); over > n/10 {
			t.Errorf("%s: %d of %d steps leave more than 1%% of their wall time out of the ledger", name, over, n)
		}
		inst, _ := w.setup(1, false)
		want := float64(inst.updates())
		inst.close()
		for _, m := range res.metrics {
			if m.name == "core.updates_per_step" && m.value != want {
				t.Errorf("%s: wrapper counted %v updates per step, workload has %v", name, m.value, want)
			}
		}
	}
}

func TestBandedCSRIsValid(t *testing.T) {
	a := bandedCSR(4000, 21, 60, 7)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 4000*21 || a.Bandwidth() > 60 {
		t.Errorf("%d nonzeros, bandwidth %d; want %d and at most 60", a.NNZ(), a.Bandwidth(), 4000*21)
	}
}
