package spray_test

// End-to-end checks of the command-line harnesses: build each binary
// once and run it with a minimal configuration, asserting on the output
// structure. Skipped under -short (they shell out to the go tool).

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"spray/internal/sparse"
)

// buildCmds compiles every cmd/ binary into a temp dir once per test run.
func buildCmds(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building cmds: %v\n%s", err, out)
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func wantAll(t *testing.T, out string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCommandsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped under -short")
	}
	bins := buildCmds(t)
	tmp := t.TempDir()
	sprayall := filepath.Join(bins, "sprayall")
	// -scale 0.002 is a 20,000-element conv array.
	tiny := []string{"-scale", "0.002", "-threads", "1,2", "-repeats", "1", "-min-time", "5ms"}

	t.Run("sprayall-fig11", func(t *testing.T) {
		dir := filepath.Join(tmp, "fig11")
		out := run(t, sprayall, append([]string{"-figure", "11", "-outdir", dir}, tiny...)...)
		wantAll(t, out, "Figure 11", "atomic", "keeper", "sequential baseline")
		csv, err := os.ReadFile(filepath.Join(dir, "fig11.csv"))
		if err != nil || !strings.HasPrefix(string(csv), "series,x,mean_s") {
			t.Errorf("csv missing or malformed: %v", err)
		}
		if _, err := os.Stat(filepath.Join(dir, "figures.json")); err != nil {
			t.Errorf("figures.json not written: %v", err)
		}
	})

	t.Run("sprayall-fig13", func(t *testing.T) {
		out := run(t, sprayall, append([]string{"-figure", "13"}, tiny...)...)
		wantAll(t, out, "Figure 13", "block-cas-64", "block-private-256")
	})

	t.Run("sprayall-tmv-matrix-file", func(t *testing.T) {
		mtx := filepath.Join(tmp, "m.mtx")
		f, err := os.Create(mtx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sparse.WriteMatrixMarket(f, sparse.Banded[float32](3000, 3000, 5, 30, 1)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		out := run(t, sprayall, append([]string{"-figure", "14", "-matrix", mtx}, tiny...)...)
		wantAll(t, out, "transpose-matrix-vector on m.mtx", "mkl-legacy", "mkl-ie-hint", "block-cas-1024")
	})

	t.Run("sprayall-fig16", func(t *testing.T) {
		// -scale 0.03 is LULESH 5^3 for 9 cycles.
		out := run(t, sprayall, "-figure", "16", "-scale", "0.03", "-threads", "1,2", "-repeats", "1")
		wantAll(t, out, "Figure 16", "lulesh-original", "spray-atomic")
	})

	t.Run("sprayadvise", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "sprayadvise"),
			"-workload", "conv", "-n", "50000", "-threads", "4")
		wantAll(t, out, "recommendation", "keeper", "ownership match")
	})

	t.Run("benchdiff-figures", func(t *testing.T) {
		var files []string
		for _, side := range []string{"old", "new"} {
			dir := filepath.Join(tmp, side)
			run(t, sprayall, "-figure", "11", "-scale", "0.001", "-threads", "1",
				"-repeats", "1", "-min-time", "2ms", "-outdir", dir)
			files = append(files, filepath.Join(dir, "figures.json"))
		}
		// A noisy tiny run may flag a regression (exit 1); an unreadable
		// or incomparable file would exit 2.
		out, err := exec.Command(filepath.Join(bins, "benchdiff"), files...).CombinedOutput()
		var exit *exec.ExitError
		if err != nil && (!errors.As(err, &exit) || exit.ExitCode() != 1) {
			t.Fatalf("benchdiff: %v\n%s", err, out)
		}
		wantAll(t, string(out), "result / series @ x", "delta", "Figure 11", "atomic", "regressed")
	})

	t.Run("bad-flags-fail", func(t *testing.T) {
		cmd := exec.Command(sprayall, "-figure", "99")
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("unknown figure accepted:\n%s", out)
		}
		cmd = exec.Command(sprayall, "-figure", "14", "-matrix", filepath.Join(tmp, "missing.mtx"))
		if out, err := cmd.CombinedOutput(); err == nil {
			t.Errorf("missing matrix file accepted:\n%s", out)
		}
	})
}
