package telemetry

import (
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestShardPadding(t *testing.T) {
	var s [2]Shard
	if sz := unsafe.Sizeof(s[0]); sz%128 != 0 {
		t.Errorf("shard size %d is not a multiple of 128", sz)
	}
	// Adjacent shards must not share a cache line pair.
	a := uintptr(unsafe.Pointer(&s[0]))
	b := uintptr(unsafe.Pointer(&s[1]))
	if b-a < 128 {
		t.Errorf("adjacent shards %d bytes apart", b-a)
	}
}

func TestNilShardAndRecorderAreSafe(t *testing.T) {
	var s *Shard
	s.Inc(Updates)
	s.Add(CASRetries, 5)
	s.IncRun(AddNRuns, 100)
	if s.Count(Updates) != 0 {
		t.Error("nil shard counted")
	}
	var r *Recorder
	if r.Shard(3) != nil {
		t.Error("nil recorder handed out a shard")
	}
	if r.Name() != "" || r.Threads() != 0 {
		t.Error("nil recorder has identity")
	}
	if r.Snapshot().Total() != 0 || r.PerThread() != nil {
		t.Error("nil recorder has data")
	}
	r.Reset() // must not panic
}

func TestRecorderAggregatesShards(t *testing.T) {
	r := NewRecorder("dense", 3)
	r.Shard(0).Inc(Updates)
	r.Shard(0).Inc(Updates)
	r.Shard(1).Add(Updates, 5)
	r.Shard(2).IncRun(AddNRuns, 64)
	snap := r.Snapshot()
	if got := snap.Get(Updates); got != 7 {
		t.Errorf("updates = %d, want 7", got)
	}
	if snap.Get(AddNRuns) != 1 || snap.Get(BulkElems) != 64 {
		t.Errorf("bulk counters %v", snap.Map())
	}
	per := r.PerThread()
	if len(per) != 3 || per[0].Get(Updates) != 2 || per[1].Get(Updates) != 5 {
		t.Errorf("per-thread %v", per)
	}
	if snap.Total() != 7+1+64 {
		t.Errorf("total = %d", snap.Total())
	}
	r.Reset()
	if r.Snapshot().Total() != 0 {
		t.Error("reset left counts")
	}
}

func TestSnapshotMapAndString(t *testing.T) {
	var s Snapshot
	s[Updates] = 10
	s[CASRetries] = 3
	m := s.Map()
	if len(m) != 2 || m["updates"] != 10 || m["cas-retries"] != 3 {
		t.Errorf("map %v", m)
	}
	str := s.String()
	if !strings.Contains(str, "updates=10") || !strings.Contains(str, "cas-retries=3") {
		t.Errorf("string %q", str)
	}
	var empty Snapshot
	if empty.String() != "(no events)" {
		t.Errorf("empty string %q", empty.String())
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < NumKinds; k++ {
		n := k.String()
		if n == "" || strings.HasPrefix(n, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestConcurrentShardWritesWithLiveSnapshots(t *testing.T) {
	// One writer goroutine per shard plus a concurrent snapshot reader:
	// must be race-clean (run under -race) and lose no increments.
	const threads, per = 4, 10000
	r := NewRecorder("atomic", threads)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // live reader, as a mid-region Report would
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.Snapshot()
			}
		}
	}()
	var writers sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		writers.Add(1)
		go func(sh *Shard) {
			defer writers.Done()
			for i := 0; i < per; i++ {
				sh.Inc(Updates)
			}
		}(r.Shard(tid))
	}
	writers.Wait()
	close(stop)
	wg.Wait()
	if got := r.Snapshot().Get(Updates); got != threads*per {
		t.Errorf("updates = %d, want %d", got, threads*per)
	}
}
