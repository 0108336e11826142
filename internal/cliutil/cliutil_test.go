package cliutil

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := ParseInts("1,2, 4 ,,56")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 4, 56}) {
		t.Errorf("got %v", got)
	}
	for _, bad := range []string{"", ",,", "1,x", "0", "-3", "1,2,-1"} {
		if _, err := ParseInts(bad); err == nil {
			t.Errorf("ParseInts(%q) succeeded", bad)
		}
	}
}

func TestProfilingWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	var p Profiling
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p.AddFlags(fs)
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	// A little work so the profiles have something to record.
	sink := 0
	for i := 0; i < 1_000_000; i++ {
		sink += i * i
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil { // idempotent
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

func TestProfilingNoFlagsIsNoop(t *testing.T) {
	var p Profiling
	stop, err := p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}
