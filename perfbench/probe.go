package main

import "time"

// spanKind labels a span the benchmark records around its own calls
// into the attack and evaluation layers (the simulators' phase spans
// come from obs.Tracer).
type spanKind uint8

const (
	spanObserve  spanKind = iota // CIA.Observe
	spanScore                    // CIA.EndRound
	spanAccuracy                 // CIA.Accuracies, or Predict + evalx.Accuracy
	spanEval                     // Simulation.UtilityHR
	numSpanKinds
)

// benchSpan is one recorded call. start is relative to the probe's
// epoch; n is a per-call count (senders scored by an EndRound).
type benchSpan struct {
	kind       spanKind
	round      int
	start, dur time.Duration
	n          int
}

// probe records benchSpans. A nil *probe records nothing, so untraced
// episodes pay one nil check per call. The simulators never run two
// observer callbacks at once, so recording needs no lock.
type probe struct {
	epoch time.Time
	spans []benchSpan
}

// begin returns the time a span starts (zero on a nil probe).
func (p *probe) begin() time.Time {
	if p == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a span of kind that began at t0.
func (p *probe) end(kind spanKind, round int, t0 time.Time, n int) {
	if p == nil {
		return
	}
	p.spans = append(p.spans, benchSpan{
		kind: kind, round: round, start: t0.Sub(p.epoch), dur: time.Since(t0), n: n,
	})
}
