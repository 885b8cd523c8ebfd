package transport

import (
	"errors"
	"strings"
	"testing"

	"halfback/internal/sim"
)

// abortReasons enumerates every defined reason; extend when adding one.
var abortReasons = []AbortReason{
	AbortNone, AbortHandshakeTimeout, AbortRetxBudgetExhausted,
	AbortDeadlineExceeded, AbortExternal, AbortPeerMisbehavior,
}

func TestAbortReasonStringExhaustive(t *testing.T) {
	want := map[AbortReason]string{
		AbortNone:                "none",
		AbortHandshakeTimeout:    "handshake-timeout",
		AbortRetxBudgetExhausted: "retx-budget",
		AbortDeadlineExceeded:    "deadline",
		AbortExternal:            "external",
		AbortPeerMisbehavior:     "peer-misbehavior",
	}
	if len(want) != len(abortReasons) {
		t.Fatal("abortReasons enumeration out of date")
	}
	seen := map[string]bool{}
	for _, r := range abortReasons {
		got := r.String()
		if got != want[r] {
			t.Fatalf("reason %d: %q != %q", r, got, want[r])
		}
		if seen[got] {
			t.Fatalf("duplicate name %q", got)
		}
		seen[got] = true
	}
	if got := AbortReason(200).String(); !strings.HasPrefix(got, "AbortReason(") {
		t.Fatalf("unknown-reason fallback: %q", got)
	}
}

func TestAbortErrorChain(t *testing.T) {
	st := &FlowStats{
		ID: 3, Scheme: "Halfback", Aborted: true,
		AbortReason: AbortPeerMisbehavior, AbortedAt: sim.Time(82 * sim.Second),
	}
	err := st.AbortError()
	if err == nil {
		t.Fatal("aborted stats must yield an error")
	}
	// errors.As recovers the concrete type with all fields intact.
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatal("errors.As failed")
	}
	if ae.Flow != 3 || ae.Scheme != "Halfback" || ae.Reason != AbortPeerMisbehavior ||
		ae.At != sim.Time(82*sim.Second) {
		t.Fatalf("fields lost: %+v", ae)
	}
	// errors.Is reaches the sentinel through Unwrap, even when wrapped.
	if !errors.Is(err, ErrAborted) {
		t.Fatal("errors.Is(err, ErrAborted) failed")
	}
	wrapped := &wrapErr{err}
	if !errors.Is(wrapped, ErrAborted) {
		t.Fatal("sentinel lost through an extra wrap")
	}
	var ae2 *AbortError
	if !errors.As(wrapped, &ae2) || ae2 != ae {
		t.Fatal("concrete type lost through an extra wrap")
	}
	if ae.FailureClass() != "aborted" {
		t.Fatalf("failure class %q", ae.FailureClass())
	}
	msg := err.Error()
	if !strings.Contains(msg, "Halfback") || !strings.Contains(msg, "peer-misbehavior") {
		t.Fatalf("message %q", msg)
	}
	// Scheme-less rendering still names flow and reason.
	bare := (&AbortError{Flow: 9, Reason: AbortExternal}).Error()
	if !strings.Contains(bare, "flow 9") || !strings.Contains(bare, "external") {
		t.Fatalf("bare message %q", bare)
	}
}

func TestAbortErrorNilForHealthyFlow(t *testing.T) {
	st := &FlowStats{ID: 1, Completed: true}
	if err := st.AbortError(); err != nil {
		t.Fatalf("healthy flow produced %v", err)
	}
	if errors.Is(st.AbortError(), ErrAborted) {
		t.Fatal("nil error must not match the sentinel")
	}
}

// TestMisbehaviorAbortRecordsStats pins the FlowStats contract for a
// misbehavior abort: reason, timestamp, per-class counters and
// FirstMisbehavior all recorded, and the first flagged ACK aborts.
func TestMisbehaviorAbortRecordsStats(t *testing.T) {
	w := newWorld(t, cleanPath())
	conn, _ := dial(t, w, 50_000, Options{AckValidation: AckValidationAbort})
	conn.SetReceiverLogic(optimistTestLogic{})
	conn.Start(0)
	w.sched.Run()
	st := conn.Stats
	if !st.Aborted || st.AbortReason != AbortPeerMisbehavior {
		t.Fatalf("aborted=%v reason=%v", st.Aborted, st.AbortReason)
	}
	if st.AbortedAt <= st.Established {
		t.Fatalf("abort time %v not after establishment %v", st.AbortedAt, st.Established)
	}
	// The first flagged ACK aborts: exactly 1 counted.
	if got := st.MisbehaviorTotal(); got != 1 {
		t.Fatalf("flagged %d ACKs, want 1", got)
	}
	if st.FirstMisbehavior != MisbehaviorOptimisticAck &&
		st.FirstMisbehavior != MisbehaviorNonceMismatch {
		t.Fatalf("first misbehavior %v", st.FirstMisbehavior)
	}
	if st.Misbehavior[st.FirstMisbehavior] == 0 {
		t.Fatal("first class has zero count")
	}
	var ae *AbortError
	if err := st.AbortError(); !errors.As(err, &ae) || ae.Reason != AbortPeerMisbehavior {
		t.Fatalf("abort error %v", st.AbortError())
	}
}

type wrapErr struct{ inner error }

func (w *wrapErr) Error() string { return "wrapped: " + w.inner.Error() }
func (w *wrapErr) Unwrap() error { return w.inner }
