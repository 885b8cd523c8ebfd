package fleet

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fakeDispatcher resolves cells from a canned table, recording every
// call — the coordinator hook without any RPC underneath.
type fakeDispatcher struct {
	mu       sync.Mutex
	done     []uint32
	outcomes map[cellKey]*CellOutcome
	infraErr error // returned for cells missing from outcomes
	calls    int
}

func (d *fakeDispatcher) DispatchCell(sweep, cell uint32, label string) (*CellOutcome, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	if res, ok := d.outcomes[cellKey{sweep, cell}]; ok {
		return res, nil
	}
	if d.infraErr != nil {
		return nil, d.infraErr
	}
	return nil, fmt.Errorf("no outcome for sweep %d cell %d", sweep, cell)
}

func (d *fakeDispatcher) SweepDone(sweep uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.done = append(d.done, sweep)
}

// successOutcome encodes a cellResult the way a worker would.
func successOutcome(t *testing.T, v cellResult) *CellOutcome {
	t.Helper()
	data, err := encodeCellData(&v)
	if err != nil {
		t.Fatal(err)
	}
	return &CellOutcome{Data: data}
}

// A dispatching Map resolves every cell remotely — the local cell
// function never runs — and writes results through to the canonical
// journal exactly like local execution would.
func TestDispatchResolvesCellsRemotely(t *testing.T) {
	path := filepath.Join(t.TempDir(), "canon.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDispatcher{outcomes: map[cellKey]*CellOutcome{
		{0, 0}: successOutcome(t, cellResult{Name: "r-0", Value: 0}),
		{0, 1}: successOutcome(t, cellResult{Name: "r-1", Value: 1}),
		{0, 2}: successOutcome(t, cellResult{Name: "r-2", Value: 2}),
	}}
	var localRuns atomic.Int32
	out, err := MapOpts(Options{Workers: 2, Run: &Run{Journal: j, Dispatch: d}}, 3,
		func(i, attempt int) (cellResult, error) {
			localRuns.Add(1)
			return cellResult{Name: "local"}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := localRuns.Load(); got != 0 {
		t.Fatalf("%d cells executed locally under a healthy dispatcher, want 0", got)
	}
	for i, want := range []string{"r-0", "r-1", "r-2"} {
		if out[i].Name != want {
			t.Fatalf("out[%d] = %+v, want Name %q", i, out[i], want)
		}
	}
	if len(d.done) != 1 || d.done[0] != 0 {
		t.Fatalf("sweep lifecycle: done=%v, want sweep 0 done once", d.done)
	}
	j.Close()

	// The dispatched results are durable and replayable: a resumed run
	// executes nothing.
	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Replayable(); got != 3 {
		t.Fatalf("Replayable after dispatch = %d, want 3", got)
	}
	resumed, err := MapOpts(Options{Run: &Run{Journal: r}}, 3,
		func(i, attempt int) (cellResult, error) {
			t.Fatalf("cell %d re-executed despite dispatched journal", i)
			return cellResult{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if resumed[i] != out[i] {
			t.Fatalf("resumed[%d] = %+v, want the dispatched %+v", i, resumed[i], out[i])
		}
	}
}

// A worker-reported failure surfaces as a labelled JobError with the
// worker's failure class intact, and lands in the journal as a failure
// record.
func TestDispatchRemoteFailureKeepsClass(t *testing.T) {
	path := filepath.Join(t.TempDir(), "canon.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d := &fakeDispatcher{outcomes: map[cellKey]*CellOutcome{
		{0, 0}: successOutcome(t, cellResult{Name: "ok"}),
		{0, 1}: {Failed: true, Label: "w:cell-1", Class: ClassPanicked, Error: "worker panicked: boom"},
	}}
	_, err = MapOpts(Options{
		Run:   &Run{Journal: j, Dispatch: d},
		Label: func(i int) string { return fmt.Sprintf("cell-%d", i) },
	}, 2, func(i, attempt int) (cellResult, error) {
		t.Fatal("local execution under healthy dispatcher")
		return cellResult{}, nil
	})
	jerrs := JobErrors(err)
	if len(jerrs) != 1 || jerrs[0].Index != 1 {
		t.Fatalf("JobErrors = %v, want exactly cell 1", jerrs)
	}
	if got := jerrs[0].Class(); got != ClassPanicked {
		t.Fatalf("failure class = %q, want the worker's %q", got, ClassPanicked)
	}
	if !strings.Contains(jerrs[0].Error(), "boom") {
		t.Fatalf("worker error text lost: %v", jerrs[0])
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("remote failure not a *RemoteError: %v", err)
	}
}

// When the dispatcher reports infrastructure failure (every worker
// dead), the cell executes locally and produces the same journaled
// result — the coordinator degrades to a serial run, not a dead one.
func TestDispatchInfrastructureFallsBackLocally(t *testing.T) {
	path := filepath.Join(t.TempDir(), "canon.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	d := &fakeDispatcher{
		outcomes: map[cellKey]*CellOutcome{
			{0, 0}: successOutcome(t, cellResult{Name: "remote-0"}),
		},
		infraErr: errors.New("all workers dead"),
	}
	var localRuns atomic.Int32
	out, err := MapOpts(Options{Workers: 1, Run: &Run{Journal: j, Dispatch: d}}, 2,
		func(i, attempt int) (cellResult, error) {
			localRuns.Add(1)
			return cellResult{Name: fmt.Sprintf("local-%d", i)}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := localRuns.Load(); got != 1 {
		t.Fatalf("%d local executions, want 1 (only the undispatched cell)", got)
	}
	if out[0].Name != "remote-0" || out[1].Name != "local-1" {
		t.Fatalf("out = %+v, want remote cell 0 + local fallback cell 1", out)
	}
	if _, ok := j.lookupCell(0, 1); !ok {
		t.Fatal("locally executed fallback cell not journaled")
	}
}

// Journal replay wins over dispatch: resumed cells are never
// re-dispatched.
func TestDispatchSkipsReplayedCells(t *testing.T) {
	path := buildJournal(t, []error{nil, nil}) // cells 0 and 1 journaled
	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	d := &fakeDispatcher{outcomes: map[cellKey]*CellOutcome{
		{0, 2}: successOutcome(t, cellResult{Name: "cell-2", Value: 3}),
	}}
	out, err := MapOpts(Options{Run: &Run{Journal: r, Dispatch: d}}, 3,
		func(i, attempt int) (cellResult, error) {
			t.Fatal("no cell should execute locally")
			return cellResult{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if d.calls != 1 {
		t.Fatalf("%d dispatch calls, want 1 (cells 0/1 replay)", d.calls)
	}
	if out[0].Name != "cell-0" || out[1].Name != "cell-1" || out[2].Name != "cell-2" {
		t.Fatalf("out = %+v", out)
	}
}

// fakeServer drives the worker-side hook: it runs a chosen set of cells
// through the provided closure, like a coordinator pushing RunCells
// calls.
type fakeServer struct {
	cells    []uint32 // which cells to run, in order
	err      error    // returned from ServeSweep after running cells
	got      map[uint32]*CellOutcome
	sweeps   []uint32
	sweepLen int
}

func (s *fakeServer) ServeSweep(sweep uint32, n int, run func(cell uint32) *CellOutcome) error {
	s.sweeps = append(s.sweeps, sweep)
	s.sweepLen = n
	if s.got == nil {
		s.got = make(map[uint32]*CellOutcome)
	}
	for _, c := range s.cells {
		s.got[c] = run(c)
	}
	return s.err
}

// The serve hook executes exactly the requested cells with full local
// semantics (retry, panic capture, journaling) and returns zero values
// from the Map — the worker renders nothing.
func TestServeRunsRequestedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "worker.journal")
	j, err := CreateJournal(path, testMeta())
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	srv := &fakeServer{cells: []uint32{1, 3}}
	out, err := MapOpts(Options{
		Run:   &Run{Journal: j, Serve: srv},
		Label: func(i int) string { return fmt.Sprintf("cell-%d", i) },
	}, 4, func(i, attempt int) (cellResult, error) {
		if i == 3 {
			panic("cell 3 explodes")
		}
		return cellResult{Name: fmt.Sprintf("w-%d", i), Value: float64(i)}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if srv.sweepLen != 4 || len(srv.sweeps) != 1 || srv.sweeps[0] != 0 {
		t.Fatalf("sweep registration: n=%d sweeps=%v", srv.sweepLen, srv.sweeps)
	}
	for i, v := range out {
		if v != (cellResult{}) {
			t.Fatalf("worker-side out[%d] = %+v, want zero value", i, v)
		}
	}

	good := srv.got[1]
	if good == nil || good.Failed {
		t.Fatalf("cell 1 outcome = %+v, want success", good)
	}
	var v cellResult
	if err := decodeCell(good.Data, &v); err != nil || v.Name != "w-1" {
		t.Fatalf("cell 1 decoded %+v (%v)", v, err)
	}

	bad := srv.got[3]
	if bad == nil || !bad.Failed || bad.Class != ClassPanicked || bad.Label != "cell-3" {
		t.Fatalf("cell 3 outcome = %+v, want captured panic", bad)
	}
	if !strings.Contains(bad.Error, "cell 3 explodes") {
		t.Fatalf("panic text lost: %q", bad.Error)
	}

	// Both outcomes are in the worker's own journal: the success as a
	// replayable cell, the panic as a failure record.
	if _, ok := j.lookupCell(0, 1); !ok {
		t.Fatal("served success not journaled worker-side")
	}
	if _, ok := j.lookupCell(0, 3); ok {
		t.Fatal("panicked cell replays")
	}
}

// A served cell whose result is already in the worker's journal replays
// from it — byte-identically — instead of re-executing.
func TestServeReplaysFromWorkerJournal(t *testing.T) {
	path := buildJournal(t, []error{nil}) // cell 0 journaled with Name "cell-0"
	r, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, ok := r.lookupCell(0, 0)
	if !ok {
		t.Fatal("setup: cell 0 not replayable")
	}
	srv := &fakeServer{cells: []uint32{0}}
	_, err = MapOpts(Options{Run: &Run{Journal: r, Serve: srv}}, 1,
		func(i, attempt int) (cellResult, error) {
			t.Fatal("journaled cell re-executed")
			return cellResult{}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	res := srv.got[0]
	if res == nil || res.Failed || string(res.Data) != string(want) {
		t.Fatalf("served replay = %+v, want the journaled bytes", res)
	}
}

// A serve failure (coordinator gone, session torn down) fails every
// cell of the sweep loudly.
func TestServeErrorFailsSweep(t *testing.T) {
	srv := &fakeServer{err: errors.New("session torn down")}
	_, err := MapOpts(Options{Run: &Run{Serve: srv}}, 3,
		func(i, attempt int) (cellResult, error) { return cellResult{}, nil })
	jerrs := JobErrors(err)
	if len(jerrs) != 3 {
		t.Fatalf("%d job errors, want all 3 cells", len(jerrs))
	}
	for _, je := range jerrs {
		if !strings.Contains(je.Error(), "session torn down") {
			t.Fatalf("job error lost the serve failure: %v", je)
		}
	}
}

// Wiring both hooks into one Run is a programming error and panics.
func TestServeAndDispatchMutuallyExclusive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for Run with both Dispatch and Serve")
		}
	}()
	MapOpts(Options{Run: &Run{Dispatch: &fakeDispatcher{}, Serve: &fakeServer{}}}, 1,
		func(i, attempt int) (int, error) { return 0, nil })
}

// RemoteError classification: the wire class round-trips through
// Classify, defaulting to ClassError when a worker sent none.
func TestRemoteErrorClass(t *testing.T) {
	if got := Classify(&RemoteError{Class: ClassStalled, Msg: "m"}); got != ClassStalled {
		t.Fatalf("Classify = %q, want %q", got, ClassStalled)
	}
	if got := Classify(&RemoteError{Msg: "m"}); got != ClassError {
		t.Fatalf("Classify with empty class = %q, want %q", got, ClassError)
	}
}
