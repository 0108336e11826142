// Package cliutil holds the small flag-parsing and profiling helpers
// shared by the cmd/ harnesses.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// ParseInts parses a comma-separated list of positive integers
// ("1,2, 4").
func ParseInts(list string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.Atoi(f)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("cliutil: bad positive integer %q", f)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty integer list")
	}
	return out, nil
}

// Profiling is the pair of pprof output paths every cmd/ harness
// accepts. Register the flags with AddFlags before flag.Parse, then
// bracket main's work between Start and the returned stop function:
//
//	var prof cliutil.Profiling
//	prof.AddFlags(flag.CommandLine)
//	flag.Parse()
//	stop, err := prof.Start()
//	// ... workload ...
//	stop() // before os.Exit; also safe under defer
type Profiling struct {
	CPUPath string
	MemPath string

	cpuFile *os.File
}

// AddFlags registers -cpuprofile and -memprofile on fs.
func (p *Profiling) AddFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPUPath, "cpuprofile", "", "write a pprof CPU profile of the run to this path")
	fs.StringVar(&p.MemPath, "memprofile", "", "write a pprof heap profile (allocs included) to this path at exit")
}

// Start begins CPU profiling if -cpuprofile was given and returns the
// stop function that finishes both profiles. The stop function is always
// non-nil and idempotent, so it is safe to both defer it and call it
// explicitly before an early os.Exit.
func (p *Profiling) Start() (stop func() error, err error) {
	if p.CPUPath != "" {
		f, err := os.Create(p.CPUPath)
		if err != nil {
			return func() error { return nil }, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return func() error { return nil }, fmt.Errorf("cliutil: start cpu profile: %w", err)
		}
		p.cpuFile = f
	}
	done := false
	return func() error {
		if done {
			return nil
		}
		done = true
		if p.cpuFile != nil {
			pprof.StopCPUProfile()
			if err := p.cpuFile.Close(); err != nil {
				return err
			}
			p.cpuFile = nil
		}
		if p.MemPath != "" {
			f, err := os.Create(p.MemPath)
			if err != nil {
				return err
			}
			// An up-to-date heap profile needs the world stopped at a GC;
			// the allocs profile type keeps cumulative allocation visible
			// alongside live bytes.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				f.Close()
				return fmt.Errorf("cliutil: write heap profile: %w", err)
			}
			return f.Close()
		}
		return nil
	}, nil
}
