package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"spray/internal/stats"
)

func sampleResults() []*Result {
	r := &Result{Title: "fig11-conv", XLabel: "threads"}
	r.AddPoint("atomic", Point{X: 1, Time: stats.Summary{N: 5, Mean: 0.010, Min: 0.009, Max: 0.011, Median: 0.010, Stddev: 0.0004}})
	r.AddPoint("atomic", Point{X: 2, Time: stats.Summary{N: 5, Mean: 0.006, Min: 0.005, Max: 0.007, Median: 0.006, Stddev: 0.0003}})
	r.AddPoint("keeper", Point{X: 2, Time: stats.Summary{N: 5, Mean: 0.004, Min: 0.004, Max: 0.005, Median: 0.004, Stddev: 0.0002}})
	return []*Result{r}
}

func TestWriteReadRoundTrip(t *testing.T) {
	results := sampleResults()
	var buf bytes.Buffer
	if err := NewFile(results).Write(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if f.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", f.Schema, SchemaVersion)
	}
	if f.Legacy() {
		t.Error("fresh file reads as legacy")
	}
	if f.Host != CurrentHost() {
		t.Errorf("host = %+v, want %+v", f.Host, CurrentHost())
	}
	if !reflect.DeepEqual(f.Results, results) {
		t.Errorf("results did not round-trip:\n got %+v\nwant %+v", f.Results, results)
	}
}

func TestReadLegacyBareArray(t *testing.T) {
	results := sampleResults()
	data, err := json.Marshal(results) // pre-envelope writers emitted this
	if err != nil {
		t.Fatal(err)
	}
	f, err := ReadJSON(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("read legacy: %v", err)
	}
	if f.Schema != 1 || !f.Legacy() {
		t.Errorf("legacy file schema = %d, Legacy = %v", f.Schema, f.Legacy())
	}
	if f.Host != (HostInfo{}) {
		t.Errorf("legacy file has host metadata %+v", f.Host)
	}
	if !reflect.DeepEqual(f.Results, results) {
		t.Error("legacy results did not parse")
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"empty":         "   \n\t",
		"no schema":     `{"Results":[]}`,
		"future schema": `{"Schema":99,"Results":[]}`,
		"garbage":       `not json`,
		"bad legacy":    `[{"Title":1}]`,
		"negative":      `{"Schema":-3}`,
	}
	for name, in := range cases {
		if _, err := ReadJSON(strings.NewReader(in)); err == nil {
			t.Errorf("%s input accepted", name)
		}
	}
}

func TestHostCompatible(t *testing.T) {
	h := CurrentHost()
	if err := h.Compatible(h); err != nil {
		t.Errorf("host incompatible with itself: %v", err)
	}
	other := h
	other.NumCPU++
	err := h.Compatible(other)
	if err == nil {
		t.Fatal("different core counts compatible")
	}
	if !strings.Contains(err.Error(), "host mismatch") {
		t.Errorf("error %q", err)
	}
	if s := h.String(); !strings.Contains(s, h.GOARCH) || !strings.Contains(s, "cpu=") {
		t.Errorf("host string %q", s)
	}
}
