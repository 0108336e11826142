package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spray/internal/bench"
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
