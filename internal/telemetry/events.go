package telemetry

import "time"

// Event is one structured diagnostic record: the anomaly detector emits
// them when a streaming baseline is breached, the flight recorder emits
// them around panics and dumps, and both feed every attached EventSink.
// Events are plain data — JSON-marshalable as-is — so sinks can ring-
// buffer, log, or ship them without knowing who produced them.
type Event struct {
	// Seq is a process-wide monotonically increasing sequence number,
	// assigned by the first ring the event lands in (0 until then).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock emission time.
	Time time.Time `json:"time"`
	// Source identifies the producer: "anomaly", "panic", "flight".
	Source string `json:"source"`
	// Strategy is the reducer strategy the event is about, when any.
	Strategy string `json:"strategy,omitempty"`
	// Metric is the derived metric that tripped ("cas-retry-rate",
	// "barrier-share", "wall-per-region", ...) for anomaly events.
	Metric string `json:"metric,omitempty"`
	// Counter names the dominant deviating raw counter the event is
	// attributed to (e.g. "cas-retries"), the hook an operator greps for.
	Counter string `json:"counter,omitempty"`
	// Value, Mean and Sigma describe the observation against its
	// baseline: the observed value, the baseline mean, and the baseline
	// standard deviation the z-score was computed with.
	Value float64 `json:"value,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	Sigma float64 `json:"sigma,omitempty"`
	// Z is the z-score that crossed the detector threshold.
	Z float64 `json:"z,omitempty"`
	// Suggestion is the remediation hint attached by the attribution
	// table ("advisor suggests block-cas").
	Suggestion string `json:"suggestion,omitempty"`
	// Message is the ready-to-log human-readable rendering.
	Message string `json:"message"`
}

// EventSink consumes structured diagnostic events. Implementations must
// be safe for concurrent Emit calls; Emit must not block for long (it
// runs on the poller or the panicking goroutine).
type EventSink interface {
	Emit(Event)
}
