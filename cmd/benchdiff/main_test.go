package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spray/internal/bench"
	"spray/internal/stats"
)

const (
	baseFixture      = "testdata/base.json"
	regressedFixture = "testdata/regressed.json"
)

// exec runs the command and returns its exit code plus captured output.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestDetectsFixtureRegression(t *testing.T) {
	code, stdout, stderr := exec(t, baseFixture, regressedFixture)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stdout, "REGRESSED") || !strings.Contains(stdout, "atomic/bulk @ 2") {
		t.Errorf("stdout:\n%s", stdout)
	}
	if !strings.Contains(stderr, "regressed beyond the noise threshold") {
		t.Errorf("stderr: %s", stderr)
	}
}

func TestCleanComparisonPasses(t *testing.T) {
	code, stdout, _ := exec(t, baseFixture, baseFixture)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "no regression") {
		t.Errorf("stdout:\n%s", stdout)
	}
}

func TestExpectRegressionSelfTest(t *testing.T) {
	if code, _, _ := exec(t, "-expect-regression", "-q", baseFixture, regressedFixture); code != 0 {
		t.Errorf("self-test on regressed fixture: exit %d, want 0", code)
	}
	if code, _, _ := exec(t, "-expect-regression", "-q", baseFixture, baseFixture); code != 1 {
		t.Errorf("self-test on identical fixture: exit %d, want 1", code)
	}
}

func TestWideNoiseBandAbsorbsFixtureRegression(t *testing.T) {
	// The fixture's 50% move disappears under a 60% relative floor.
	if code, _, _ := exec(t, "-min-rel", "0.6", "-q", baseFixture, regressedFixture); code != 0 {
		t.Errorf("exit with wide band = %d, want 0", code)
	}
}

// assertRerecordRefusal checks that an incomparable baseline exits 2,
// names the copy command that re-records it from the candidate, and is
// left exactly as it was.
func assertRerecordRefusal(t *testing.T, basePath string) {
	t.Helper()
	before, readErr := os.ReadFile(basePath)
	code, stdout, stderr := exec(t, basePath, baseFixture)
	if code != 2 {
		t.Fatalf("exit = %d, want 2\nstderr: %s", code, stderr)
	}
	if want := "cp " + baseFixture + " " + basePath; !strings.Contains(stderr, want) {
		t.Errorf("stderr does not name the re-record command %q:\n%s", want, stderr)
	}
	if stdout != "" {
		t.Errorf("refusal printed a delta table:\n%s", stdout)
	}
	after, err := os.ReadFile(basePath)
	if readErr != nil {
		if err == nil {
			t.Error("a missing baseline was created")
		}
		return
	}
	if !bytes.Equal(before, after) {
		t.Error("the baseline was rewritten")
	}
}

func TestMissingBaselineNamesRerecordCommand(t *testing.T) {
	assertRerecordRefusal(t, filepath.Join(t.TempDir(), "baseline.json"))
}

func TestIncomparableBaselineNamesRerecordCommand(t *testing.T) {
	t.Run("legacy", func(t *testing.T) {
		basePath := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(basePath, []byte(`[]`), 0o644); err != nil {
			t.Fatal(err)
		}
		assertRerecordRefusal(t, basePath)
	})
	t.Run("host-mismatch", func(t *testing.T) {
		f, err := bench.ReadFile(baseFixture)
		if err != nil {
			t.Fatal(err)
		}
		f.Host.NumCPU++
		basePath := filepath.Join(t.TempDir(), "baseline.json")
		var buf bytes.Buffer
		if err := f.Write(&buf); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(basePath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		assertRerecordRefusal(t, basePath)
	})
}

func TestRejectsLegacyCandidate(t *testing.T) {
	candPath := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(candPath, []byte(`[]`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := exec(t, baseFixture, candPath)
	if code != 2 || !strings.Contains(stderr, "re-record") {
		t.Errorf("exit = %d, stderr: %s", code, stderr)
	}
}

func TestUsageErrors(t *testing.T) {
	if code, _, _ := exec(t, baseFixture); code != 2 {
		t.Errorf("one arg: exit %d, want 2", code)
	}
	if code, _, _ := exec(t, "-no-such-flag", baseFixture, baseFixture); code != 2 {
		t.Errorf("bad flag: exit %d, want 2", code)
	}
}

// schedLeg is a schedule-comparison result with one point at t=2: mean
// seconds for static, dynamic, guided and steal, named the way sprayall
// -figure sched names its series.
func schedLeg(title string, static, dynamic, guided, steal float64) *bench.Result {
	res := &bench.Result{Title: title, XLabel: "threads"}
	for _, s := range []struct {
		name string
		mean float64
	}{{"static", static}, {"dynamic(1)", dynamic}, {"guided(1)", guided}, {"steal", steal}} {
		res.AddPoint(s.name, bench.Point{X: 2, Time: stats.Summary{N: 5, Mean: s.mean}})
	}
	return res
}

// writeFile writes results as a benchmark file in a temp dir.
func writeFile(t *testing.T, results ...*bench.Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "figures.json")
	var buf bytes.Buffer
	if err := bench.NewFile(results).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestScheduleClaims checks each claim on a candidate diffed against
// itself, so only the claims can fail the run.
func TestScheduleClaims(t *testing.T) {
	uniform := schedLeg("Schedule comparison: uniform conv", 1.0, 3.0, 1.0, 1.1)
	for _, tc := range []struct {
		name   string
		legs   []*bench.Result
		code   int
		stderr string
	}{
		{"hold", []*bench.Result{
			schedLeg("Schedule comparison: skew", 2.0, 1.5, 1.2, 1.0),
			schedLeg("Schedule comparison: tmv", 1.0, 2.0, 1.0, 1.0),
			uniform,
		}, 0, ""},
		{"steal-not-faster-than-dynamic", []*bench.Result{
			schedLeg("Schedule comparison: skew", 2.0, 1.0, 1.2, 1.0),
			uniform,
		}, 1, "steal beats dynamic"},
		{"guided-point", []*bench.Result{
			schedLeg("Schedule comparison: skew", 2.0, 2.0, 1.0, 1.25),
			schedLeg("Schedule comparison: tmv", 2.0, 2.0, 1.0, 0.5),
			uniform,
		}, 1, "within 20% of guided"},
		{"guided-geomean", []*bench.Result{
			schedLeg("Schedule comparison: skew", 2.0, 2.0, 1.0, 1.1),
			schedLeg("Schedule comparison: tmv", 2.0, 2.0, 1.0, 1.1),
			uniform,
		}, 1, "no slower than guided in geomean"},
		{"uniform-static", []*bench.Result{
			schedLeg("Schedule comparison: skew", 2.0, 1.5, 1.2, 1.0),
			schedLeg("Schedule comparison: uniform conv", 1.0, 3.0, 2.0, 1.7),
		}, 1, "within 60% of static"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := writeFile(t, tc.legs...)
			code, stdout, stderr := exec(t, path, path)
			if code != tc.code {
				t.Fatalf("exit = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			if !strings.Contains(stdout, "t=2  steal") {
				t.Errorf("no per-point schedule table:\n%s", stdout)
			}
			if tc.code == 0 && !strings.Contains(stdout, "all schedule claims hold") {
				t.Errorf("stdout:\n%s", stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr does not name %q:\n%s", tc.stderr, stderr)
			}
			if n := strings.Count(stderr, "breaks"); tc.code == 1 && n != 1 {
				t.Errorf("%d claim failures, want 1:\n%s", n, stderr)
			}
		})
	}
}

func TestNoStealSeriesChecksNoClaims(t *testing.T) {
	code, stdout, _ := exec(t, baseFixture, baseFixture)
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.Contains(stdout, "schedule claims") || strings.Contains(stdout, "steal") {
		t.Errorf("claims checked on a file without a steal series:\n%s", stdout)
	}
}
