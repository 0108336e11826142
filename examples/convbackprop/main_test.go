package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmall runs the example at a small size: every step's parallel
// input gradient must match the sequential sweep, or run fails.
func TestRunSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "5000", "-threads", "3", "-steps", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{"step 2:", "matches the sequential sweep", "final weight error"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-n", "2"}, {"-threads", "0"}, {"-bogus"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
