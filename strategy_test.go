package spray

import (
	"strings"
	"testing"
)

// TestWrapperNestingRoundTrip drives every strategy through parse ->
// print -> parse and requires a fixed point: the printed form re-parses
// to an identical Strategy value and prints identically again. No
// wrapper prefix exists any more, so the base strategies are the whole
// name space.
func TestWrapperNestingRoundTrip(t *testing.T) {
	for _, base := range AllStrategies() {
		name := base.String()
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

// TestParseStrategyRejectsInvalidNestings requires every wrapper prefix,
// and every name of a deleted strategy, to fail with an error that names
// the problem. Saved configurations may still carry these names; they
// must be refused, not silently mapped onto a surviving strategy.
func TestParseStrategyRejectsInvalidNestings(t *testing.T) {
	cases := []struct {
		name    string
		errWant string // substring the error must carry
	}{
		{"plan+plan+atomic", "unknown strategy"},
		{"plan+keeper", "unknown strategy"},
		{"plan+atomic", "unknown strategy"},
		{"binned+atomic", "unknown strategy"},
		{"hot+atomic", "unknown strategy"},
		{"plan+hot+atomic", "unknown strategy"},
		{"auto", "unknown strategy"},
		{"auto-1024", "unknown strategy"},
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
