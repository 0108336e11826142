package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestBuiltinWorkloadPicks pins the two-thread recommendation of every
// built-in workload. Each case uses the smallest -n that gives the same
// pick as the default size (1,000,000): conv, tmv and graph already do
// at 50,000, while the histogram's fixed 65,536 bins cross the dense
// rung's 50% touched fraction only at the default sample count.
func TestBuiltinWorkloadPicks(t *testing.T) {
	pick := regexp.MustCompile(`(?m)^recommendation\s+(\S+) — `)
	for _, tc := range []struct {
		workload, n, want string
	}{
		{"conv", "50000", "keeper"},
		{"tmv", "50000", "keeper"},
		{"graph", "50000", "dense"},
		{"histogram", "1000000", "dense"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-workload", tc.workload, "-threads", "2", "-n", tc.n}, &out, &errb); code != 0 {
				t.Fatalf("exit %d\nstderr: %s", code, errb.String())
			}
			m := pick.FindAllStringSubmatch(out.String(), -1)
			if len(m) != 1 {
				t.Fatalf("want one recommendation line, got %d:\n%s", len(m), out.String())
			}
			if m[0][1] != tc.want {
				t.Errorf("pick = %s, want %s:\n%s", m[0][1], tc.want, out.String())
			}
		})
	}
}

func TestRejectsUnknownWorkload(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &out, &errb); code != 1 || !strings.Contains(errb.String(), `unknown workload "nope"`) {
		t.Errorf("exit %d, stderr: %s", code, errb.String())
	}
}
