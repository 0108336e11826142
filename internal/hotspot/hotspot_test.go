package hotspot

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// exact builds a profiler that samples every call, so counts are exact.
func exact(strategy string, n, threads int) *Profiler {
	return New(strategy, n, threads, Options{SamplePeriod: 1})
}

func TestHotspotNilSafety(t *testing.T) {
	var p *Profiler
	if p.Shard(0) != nil {
		t.Fatal("nil profiler Shard should be nil")
	}
	p.Reset()
	if p.Snapshot() != nil {
		t.Fatal("nil profiler Snapshot should be nil")
	}
	var s *Shard
	s.Record(CASRetry, 3)
	s.RecordW(KeeperForeign, 3, 7)
	s.RecordRun(KeeperForeign, 0, 100)
	s.RecordBatch(PlanExchange, []int32{1, 2, 3})
	var prof *Profile
	if prof.TotalConflicts() != 0 {
		t.Fatal("nil profile TotalConflicts should be 0")
	}
	if got := prof.TopLines(4); got != nil {
		t.Fatal("nil profile TopLines should be nil")
	}
	if name, w := prof.DominantClass(); name != "" || w != 0 {
		t.Fatal("nil profile DominantClass should be empty")
	}
	if err := prof.Merge(&Profile{}); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
}

func TestHotspotShardBounds(t *testing.T) {
	p := exact("atomic", 1024, 2)
	if p.Shard(-1) != nil || p.Shard(2) != nil {
		t.Fatal("out-of-range tid should yield nil shard")
	}
	if p.Shard(0) == nil || p.Shard(1) == nil {
		t.Fatal("in-range tid should yield a shard")
	}
	if p.Strategy() != "atomic" {
		t.Fatalf("strategy = %q", p.Strategy())
	}
}

func TestHotspotExactCounts(t *testing.T) {
	// LineElems defaults to 8: index 40 is line 5, index 47 too.
	p := exact("keeper", 640, 1)
	s := p.Shard(0)
	for i := 0; i < 10; i++ {
		s.Record(KeeperForeign, 40) // line 5
	}
	s.RecordW(CASRetry, 47, 3) // line 5
	s.Record(CASRetry, 8)      // line 1

	prof := p.Snapshot()
	if prof.Totals["keeper-foreign"] != 10 || prof.Totals["cas-retry"] != 4 {
		t.Fatalf("totals = %v", prof.Totals)
	}
	if prof.TotalConflicts() != 14 {
		t.Fatalf("TotalConflicts = %d", prof.TotalConflicts())
	}
	if name, w := prof.DominantClass(); name != "keeper-foreign" || w != 10 {
		t.Fatalf("DominantClass = %s/%d", name, w)
	}
	if len(prof.Lines) == 0 || prof.Lines[0].Line != 5 || prof.Lines[0].Count != 13 {
		t.Fatalf("top line = %+v", prof.Lines)
	}
	if prof.Lines[0].Index != 40 {
		t.Fatalf("top line index = %d, want 40", prof.Lines[0].Index)
	}
	var sampledSum uint64
	for _, w := range prof.Sampled {
		sampledSum += w
	}
	if sampledSum != 14 {
		t.Fatalf("sampled sum = %d, want 14", sampledSum)
	}
}

func TestHotspotRecordRunSpreadsWeight(t *testing.T) {
	p := exact("keeper", 1024, 1)
	s := p.Shard(0)
	// [6, 26): 2 elems in line 0, 8 in line 1, 8 in line 2, 2 in line 3.
	s.RecordRun(KeeperForeign, 6, 20)
	prof := p.Snapshot()
	if prof.Totals["keeper-foreign"] != 20 {
		t.Fatalf("total = %v", prof.Totals)
	}
	want := map[int]uint64{0: 2, 1: 8, 2: 8, 3: 2}
	got := map[int]uint64{}
	for _, l := range prof.Lines {
		got[l.Line] = l.Count
	}
	for ln, w := range want {
		if got[ln] != w {
			t.Fatalf("line %d weight = %d, want %d (all: %v)", ln, got[ln], w, got)
		}
	}
}

func TestHotspotRecordBatch(t *testing.T) {
	p := exact("planned+keeper", 1024, 1)
	s := p.Shard(0)
	s.RecordBatch(PlanExchange, []int32{0, 1, 7, 8, 64})
	prof := p.Snapshot()
	if prof.Totals["plan-exchange"] != 5 {
		t.Fatalf("total = %v", prof.Totals)
	}
	got := map[int]uint64{}
	for _, l := range prof.Lines {
		got[l.Line] = l.Count
	}
	if got[0] != 3 || got[1] != 1 || got[8] != 1 {
		t.Fatalf("line weights = %v", got)
	}
}

func TestHotspotDecimation(t *testing.T) {
	p := New("atomic", 1024, 1, Options{SamplePeriod: 4})
	s := p.Shard(0)
	for i := 0; i < 400; i++ {
		s.Record(CASRetry, 8)
	}
	prof := p.Snapshot()
	if prof.Totals["cas-retry"] != 400 {
		t.Fatalf("exact total = %v, decimation must not drop events", prof.Totals)
	}
	// Every 4th call is sampled: exactly 100 reach the sketch.
	if prof.Sampled["cas-retry"] != 100 {
		t.Fatalf("sampled = %v, want 100", prof.Sampled)
	}
}

func TestHotspotTopKAdmitsHeavyLine(t *testing.T) {
	// More distinct lines than TopK; a heavy hitter recorded after the
	// table fills must displace a light entry.
	p := New("atomic", 64*1024, 1, Options{SamplePeriod: 1, TopK: 8})
	s := p.Shard(0)
	for ln := 0; ln < 32; ln++ {
		s.Record(CASRetry, ln*8) // one event per line fills the table
	}
	for i := 0; i < 100; i++ {
		s.Record(CASRetry, 40*8) // line 40 becomes the heavy hitter
	}
	prof := p.Snapshot()
	if len(prof.Lines) == 0 || prof.Lines[0].Line != 40 {
		t.Fatalf("heavy line not admitted: %+v", prof.Lines)
	}
	if prof.Lines[0].Count < 100 {
		t.Fatalf("heavy line count = %d, want >= 100", prof.Lines[0].Count)
	}
	if len(prof.Lines) > 8 {
		t.Fatalf("profile keeps %d lines, TopK is 8", len(prof.Lines))
	}
}

func TestHotspotReset(t *testing.T) {
	p := exact("atomic", 1024, 2)
	p.Shard(0).Record(CASRetry, 0)
	p.Shard(1).RecordW(PlanExchange, 64, 5)
	p.Reset()
	prof := p.Snapshot()
	if prof.TotalConflicts() != 0 || len(prof.Lines) != 0 {
		t.Fatalf("after reset: conflicts=%d lines=%v", prof.TotalConflicts(), prof.Lines)
	}
	if len(prof.Sampled) != 0 {
		t.Fatalf("sampled totals not cleared: %v", prof.Sampled)
	}
}

func TestHotspotMergeAndGeometry(t *testing.T) {
	a := exact("keeper", 1024, 1)
	a.Shard(0).RecordW(KeeperForeign, 0, 4)
	b := exact("keeper", 1024, 1)
	b.Shard(0).RecordW(KeeperForeign, 0, 6)
	b.Shard(0).Record(CASRetry, 512)

	pa, pb := a.Snapshot(), b.Snapshot()
	pa.Updates, pb.Updates = 100, 200
	if err := pa.Merge(pb); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if pa.Totals["keeper-foreign"] != 10 || pa.Totals["cas-retry"] != 1 {
		t.Fatalf("merged totals = %v", pa.Totals)
	}
	if pa.Updates != 300 {
		t.Fatalf("merged updates = %d", pa.Updates)
	}
	if pa.Lines[0].Line != 0 || pa.Lines[0].Count != 10 {
		t.Fatalf("merged lines = %+v", pa.Lines)
	}

	other := exact("keeper", 2048, 1).Snapshot()
	if err := pa.Merge(other); err == nil {
		t.Fatal("merging mismatched geometry should fail")
	}
}

func TestHotspotProfileJSONRoundTrip(t *testing.T) {
	p := exact("plan+atomic", 1024, 2)
	p.Shard(0).RecordW(PlanExchange, 24, 9)
	p.Shard(1).Record(CASRetry, 800)
	prof := p.Snapshot()
	prof.Updates = 1 << 20

	dir := t.TempDir()
	single := filepath.Join(dir, "single.json")
	if err := prof.WriteFile(single); err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfiles(single)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Strategy != "plan+atomic" || got[0].Updates != prof.Updates {
		t.Fatalf("round trip: %+v", got)
	}
	if got[0].TotalConflicts() != prof.TotalConflicts() {
		t.Fatalf("conflicts %d != %d", got[0].TotalConflicts(), prof.TotalConflicts())
	}

	multi := filepath.Join(dir, "multi.json")
	if err := WriteProfiles(multi, []*Profile{prof, prof}); err != nil {
		t.Fatal(err)
	}
	if got, err = ReadProfiles(multi); err != nil || len(got) != 2 {
		t.Fatalf("array round trip: %v %d", err, len(got))
	}

	// Profiles written before the spatial heat buckets were dropped still
	// carry heat_buckets and buckets; they must keep loading.
	legacy := filepath.Join(dir, "legacy.json")
	const legacyJSON = `{"schema_version":1,"strategy":"keeper","n":1024,"threads":2,
"line_elems":8,"num_lines":128,"sketch_depth":4,"sketch_width":1024,"sample_period":1,
"heat_buckets":4,"updates":64,"totals":{"keeper-foreign":6},"sampled":{"keeper-foreign":6},
"lines":[{"line":3,"index":24,"count":6}],"buckets":[6,0,0,0]}`
	if err := os.WriteFile(legacy, []byte(legacyJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = ReadProfiles(legacy)
	if err != nil {
		t.Fatalf("legacy profile: %v", err)
	}
	if len(got) != 1 || got[0].TotalConflicts() != 6 || len(got[0].Lines) != 1 || got[0].Lines[0].Line != 3 {
		t.Fatalf("legacy profile loaded as %+v", got)
	}

	bad := filepath.Join(dir, "bad.json")
	stale := *prof
	stale.SchemaVersion = ProfileSchemaVersion + 1
	if err := stale.WriteFile(bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadProfiles(bad); err == nil {
		t.Fatal("schema mismatch should be rejected")
	}
}

func TestHotspotConcurrentRecordSnapshot(t *testing.T) {
	const threads = 4
	p := New("atomic", 8192, threads, Options{SamplePeriod: 2})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			s := p.Shard(tid)
			for i := 0; i < 20000; i++ {
				s.Record(CASRetry, (tid*31+i*7)%8192)
				if i%64 == 0 {
					s.RecordRun(KeeperForeign, i%4096, 32)
				}
			}
		}(tid)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = p.Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-done
	prof := p.Snapshot()
	if prof.Totals["cas-retry"] != threads*20000 {
		t.Fatalf("cas-retry total = %d, want %d", prof.Totals["cas-retry"], threads*20000)
	}
}

func TestHotspotSketchAccuracyZipf(t *testing.T) {
	// Deterministic skewed workload: line ln gets weight ~ 1/(ln+1)
	// scaled. The sketch top-K must recover the true heaviest lines.
	p := New("atomic", 64*1024, 1, Options{SamplePeriod: 1, TopK: 16})
	s := p.Shard(0)
	const lines = 512
	for ln := 0; ln < lines; ln++ {
		w := 2000 / (ln + 1)
		for i := 0; i < w; i++ {
			s.Record(CASRetry, ln*8)
		}
	}
	prof := p.Snapshot()
	top := prof.TopLines(8)
	if len(top) != 8 {
		t.Fatalf("top = %d lines", len(top))
	}
	hit := 0
	for _, l := range top {
		if l.Line < 8 {
			hit++
		}
	}
	if hit < 7 {
		t.Fatalf("sketch top-8 recovered only %d of the 8 true heaviest lines: %+v", hit, top)
	}
}
