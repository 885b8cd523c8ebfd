// Package sim provides the deterministic discrete-event simulation engine
// that underlies every experiment in this repository.
//
// The engine is deliberately small: a virtual clock measured in integer
// nanoseconds, an event queue with stable tie-breaking — a 4-ary indexed
// min-heap that is the single ordering authority, with a hierarchical
// timer wheel in front of it once more than a handful of events are
// pending — and a seeded random-number facility. Nothing in the
// simulation path reads the wall clock, so a run is a pure function of
// its configuration and seed.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. It is an integer type so event ordering is exact: two events
// scheduled for the same nanosecond are further ordered by their scheduling
// sequence number, which makes runs reproducible across machines.
type Time int64

// Duration is a span of virtual time in nanoseconds. It intentionally
// mirrors time.Duration so the familiar constructors (Millisecond etc.)
// can be used via the conversion helpers below.
type Duration = time.Duration

// Common duration units re-exported for convenience so simulation code does
// not need to import both sim and time.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// Add returns the time d after t, saturating at the largest
// representable time instead of wrapping: "forever from now" is a legal
// deadline for AfterFunc and RunUntil.
func (t Time) Add(d Duration) Time {
	if d > Duration(maxTime-t) {
		return maxTime
	}
	return t + Time(d)
}

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// Seconds returns the time as a floating-point number of seconds, for
// metric output.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds returns the time as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String renders the time with millisecond precision, e.g. "1234.567ms".
func (t Time) String() string {
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}
