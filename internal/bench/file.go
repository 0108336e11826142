package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// SchemaVersion identifies the layout of the JSON files written by
// File.Write. Version 1 was a bare []*Result array with no metadata;
// version 2 wraps the results in a File envelope stamped with the schema
// number and the host the numbers were measured on, so the regression
// gate can refuse to compare runs that are not comparable.
const SchemaVersion = 2

// HostInfo records the machine configuration a benchmark file was
// produced on. Two files are only comparable when every field matches:
// a different core count, Go release or architecture shifts the numbers
// for reasons that have nothing to do with the code under test.
type HostInfo struct {
	GOOS       string
	GOARCH     string
	GoVersion  string
	NumCPU     int
	GOMAXPROCS int
}

// CurrentHost captures the running process's host configuration.
func CurrentHost() HostInfo {
	return HostInfo{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Compatible reports whether results measured on h can be meaningfully
// compared against results measured on other.
func (h HostInfo) Compatible(other HostInfo) error {
	if h == other {
		return nil
	}
	return fmt.Errorf("bench: host mismatch: %s vs %s", h, other)
}

func (h HostInfo) String() string {
	return fmt.Sprintf("%s/%s %s cpu=%d maxprocs=%d",
		h.GOOS, h.GOARCH, h.GoVersion, h.NumCPU, h.GOMAXPROCS)
}

// File is the schema-versioned envelope around a set of benchmark
// results — what Write writes and ReadJSON returns.
type File struct {
	Schema  int
	Host    HostInfo
	Results []*Result
}

// NewFile wraps results in an envelope stamped with the current schema
// version and host.
func NewFile(results []*Result) *File {
	return &File{Schema: SchemaVersion, Host: CurrentHost(), Results: results}
}

// Legacy reports whether the file predates the envelope (a bare version-1
// array carrying no host metadata).
func (f *File) Legacy() bool { return f.Schema < SchemaVersion }

// ReadJSON parses a benchmark file written by File.Write. Version-1 files
// (a bare JSON array of results) are still accepted and surface as a
// File with Schema 1 and zero Host, so callers can detect and refuse —
// or migrate — them explicitly.
func ReadJSON(r io.Reader) (*File, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("bench: empty benchmark file")
	}
	if trimmed[0] == '[' { // schema 1: bare result array
		var results []*Result
		if err := json.Unmarshal(trimmed, &results); err != nil {
			return nil, fmt.Errorf("bench: parsing legacy result array: %w", err)
		}
		return &File{Schema: 1, Results: results}, nil
	}
	var f File
	if err := json.Unmarshal(trimmed, &f); err != nil {
		return nil, fmt.Errorf("bench: parsing benchmark file: %w", err)
	}
	if f.Schema < 1 {
		return nil, fmt.Errorf("bench: benchmark file has no schema version")
	}
	if f.Schema > SchemaVersion {
		return nil, fmt.Errorf("bench: benchmark file has schema %d, this binary understands up to %d", f.Schema, SchemaVersion)
	}
	return &f, nil
}

// ReadFile is ReadJSON over a path.
func ReadFile(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	file, err := ReadJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return file, nil
}

// Write writes the envelope as indented JSON.
func (f *File) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
