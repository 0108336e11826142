package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmall runs the adjoint check on a small grid: run fails unless
// the adjoint's relative error against the finite difference passes
// verdict's threshold.
func TestRunSmall(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "48", "-steps", "12", "-threads", "3"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "adjoint gradient verified") {
		t.Errorf("output lacks the verified verdict:\n%s", out.String())
	}
}

func TestVerdictThreshold(t *testing.T) {
	for rel, want := range map[float64]string{0: "verified", 9e-9: "verified", -9e-9: "verified", 2e-8: "MISMATCH", -2e-8: "MISMATCH"} {
		if got := verdict(rel); got != want {
			t.Errorf("verdict(%g) = %q, want %q", rel, got, want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-n", "8"}, {"-steps", "0"}, {"-threads", "0"}, {"-bogus"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
