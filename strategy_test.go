package spray

import (
	"strings"
	"testing"
)

// TestWrapperNestingRoundTrip drives every valid wrapper nesting over
// every base strategy through parse -> print -> parse and requires a
// fixed point: the printed form re-parses to an identical Strategy value
// and prints identically again.
func TestWrapperNestingRoundTrip(t *testing.T) {
	wrap := func(prefix string) []string {
		var out []string
		for _, base := range AllStrategies() {
			out = append(out, prefix+base.String())
		}
		return out
	}
	var names []string
	for _, prefix := range []string{
		"", "plan+",
	} {
		names = append(names, wrap(prefix)...)
	}
	for _, name := range names {
		st, err := ParseStrategy(name)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", name, err)
			continue
		}
		printed := st.String()
		if printed != name {
			t.Errorf("ParseStrategy(%q).String() = %q — printing must preserve the canonical spelling", name, printed)
			continue
		}
		again, err := ParseStrategy(printed)
		if err != nil {
			t.Errorf("re-parse of %q: %v", printed, err)
			continue
		}
		if again != st {
			t.Errorf("round trip %q: %v != %v", name, again, st)
		}
	}
}

// TestWrapperSettersMatchParsedForm checks the Go constructor spelling
// and the string spelling of each nesting build identical values.
func TestWrapperSettersMatchParsedForm(t *testing.T) {
	cases := []struct {
		name string
		st   Strategy
	}{
		{"plan+compensated", Planned(Compensated())},
		{"plan+block-cas-1024", Planned(BlockCAS(0))},
	}
	for _, c := range cases {
		parsed, err := ParseStrategy(c.name)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", c.name, err)
			continue
		}
		if parsed != c.st {
			t.Errorf("%q: parsed %v != constructed %v", c.name, parsed, c.st)
		}
		if got := c.st.String(); got != c.name {
			t.Errorf("constructed %v prints %q, want %q", c.st, got, c.name)
		}
	}
}

// TestParseStrategyRejectsInvalidNestings requires every non-canonical
// or doubled wrapper order to fail with an error that names the problem
// (not a silent reassociation into the canonical order, which would make
// the string mean something the user did not write).
func TestParseStrategyRejectsInvalidNestings(t *testing.T) {
	cases := []struct {
		name    string
		errWant string // substring the error must carry
	}{
		{"plan+plan+atomic", "stacks the plan wrapper twice"},
		{"binned+atomic", "unknown strategy"},
		{"hot+atomic", "unknown strategy"},
		{"plan+hot+atomic", "unknown strategy"},
	}
	for _, c := range cases {
		st, err := ParseStrategy(c.name)
		if err == nil {
			t.Errorf("ParseStrategy(%q) accepted as %v, want rejection", c.name, st)
			continue
		}
		if !strings.Contains(err.Error(), c.errWant) {
			t.Errorf("ParseStrategy(%q) error %q does not mention %q", c.name, err, c.errWant)
		}
	}
}

// TestParseStrategiesListWithWrappers checks the comma-list entry point
// used by the CLIs handles wrapped names and propagates nesting errors.
func TestParseStrategiesListWithWrappers(t *testing.T) {
	sts, err := ParseStrategies("atomic, plan+keeper")
	if err != nil {
		t.Fatalf("ParseStrategies: %v", err)
	}
	want := []Strategy{Atomic(), Planned(Keeper())}
	if len(sts) != len(want) {
		t.Fatalf("got %d strategies, want %d", len(sts), len(want))
	}
	for i := range want {
		if sts[i] != want[i] {
			t.Errorf("entry %d: %v, want %v", i, sts[i], want[i])
		}
	}
	if _, err := ParseStrategies("atomic, plan+plan+atomic"); err == nil {
		t.Error("invalid nesting inside a list was accepted")
	}
}
