// Package dist is the distributed sweep fabric (DESIGN.md §12): a
// coordinator that shards sweep cells across worker processes over
// stdlib net/rpc, writing their results through to the canonical
// write-ahead journal so a distributed run is byte-identical to a serial
// one and resumable across coordinator and worker crashes. That journal
// is the one durable record of a cell: workers keep none, and a cell a
// crash caught in flight re-executes to the same bytes.
//
// The model is push-based and leans entirely on determinism:
//
//   - Both sides run the same program (same tool, args and seed). The
//     coordinator runs it with a fleet.Dispatcher attached; each worker
//     runs it with a fleet.SweepServer attached. Because sweep IDs are
//     assigned in Map-call order and every cell derives everything from
//     its own seed, the two processes agree on (sweep, cell) addressing
//     and on every cell's result bytes without negotiation.
//
//   - Workers are net/rpc servers. The coordinator dials them, sends one
//     Configure carrying the run's journal meta (the worker re-derives
//     the whole run from it), then pushes RunCells calls.
//
//   - The unit of a round trip is a lease: one outstanding RunCells call
//     carrying N ≥ 1 cells of one sweep, which the worker runs in order
//     on the call's goroutine and answers with N outcomes. A slot is one
//     outstanding lease, so SlotsPerWorker bounds concurrent cell
//     executions per worker. Concurrent DispatchCell callers queue; every
//     free slot takes a lease off the head of the queue, sized by the
//     coordinator from what it measures (leaseSize): a worker's first
//     lease is one cell, the next ones hold as many cells as fit
//     leaseTarget at the seconds-per-cell its last leases took, never
//     more than leaseCap nor than an even share of the queue. Cheap cells
//     therefore travel dozens per round trip; a cell slower than the
//     target keeps a one-cell lease, and with it per-cell load balance.
//
//   - Worker death is detected by the call failing (TCP reset) or by
//     missed Ping heartbeats; either way the coordinator marks the worker
//     dead, which fails its in-flight leases, and every cell of a dead
//     lease goes back to the head of the queue for the surviving workers
//     — or is executed locally when no worker is left. A draining worker
//     finishes its in-flight leases (bounded by leaseTarget for cheap
//     cells) and refuses the next. A reassigned cell may already have run
//     on the worker that died; executing it twice is safe because
//     results are seed-determined, so first-result-wins per cell is
//     deterministic.
package dist

import "halfback/internal/fleet"

// protoVersion guards against a coordinator and worker built from
// different journal or wire formats talking past each other. It is
// carried both in the pre-RPC handshake hello (where a mismatch fails
// with an error naming both versions) and in ConfigureArgs (defense in
// depth for a peer that somehow skipped the handshake).
//
// v2: authenticated session handshake before net/rpc, Fenced counters
// in replies. v3: RunCells (a lease of N cells) replaces RunCell. v4:
// Configure uploads nothing (workers keep no journal). v5: a cell's
// payload is a fixed-layout fleet.Row (journal format HBJRNL02). v6:
// nothing tells a worker that a sweep has ended — its program registers
// every sweep and runs ahead — so a v5 worker would wait in its first
// sweep for an end that never comes. v7: the exhibits of one program
// share sweeps (journal format HBJRNL03), so a v6 worker would serve a
// multi-exhibit run's cells under other sweep numbers. v8: the cells of
// Figs. 3 and 15 are fleet.Rows too (journal format HBJRNL04), so a v7
// worker would answer them with gob payloads.
const protoVersion = 8

// ConfigureArgs establishes (or re-establishes) a worker session: the
// worker tears down any previous session and starts the run Meta
// describes with a SweepServer attached.
type ConfigureArgs struct {
	// Gen identifies one coordinator incarnation. A Configure with the
	// generation the worker already runs is an idempotent reconnect; a
	// new generation replaces the session.
	Gen   uint64
	Proto int
	Meta  fleet.JournalMeta
}

// ConfigureReply acknowledges a session.
type ConfigureReply struct {
	// Fenced counts RPCs this worker has refused from stale
	// generations — zombie coordinators (or this coordinator's own
	// earlier incarnation) fenced off by Gen. Diagnostics for the
	// end-of-run metrics line.
	Fenced uint64
}

// RunCellsArgs is one lease: the worker produces the outcomes of Cells,
// all of sweep Sweep, in order. The call blocks until the worker's
// program registers the sweep (it runs ahead of the coordinator once
// started, so the wait is at most its start-up).
type RunCellsArgs struct {
	Gen   uint64
	Sweep uint32
	Cells []uint32
}

// RunCellsReply carries one terminal outcome per leased cell, in lease
// order — the payload of a success or the recorded failure.
// RPC-level errors, by contrast, mean the worker could not serve the
// lease at all (stale session, dead program, draining) and the
// coordinator puts its cells back in the queue.
type RunCellsReply struct {
	Outcomes []fleet.CellOutcome
}

// PingArgs is the heartbeat. A worker that stops answering within the
// coordinator's miss budget is declared dead.
type PingArgs struct {
	Gen uint64
}

// PingReply reports worker liveness (the RPC completing is the signal;
// the fields are diagnostics).
type PingReply struct {
	// Fenced mirrors ConfigureReply.Fenced.
	Fenced uint64
}

// ShutdownArgs asks the worker process to exit cleanly.
type ShutdownArgs struct{}

// Empty is the reply type of calls with nothing to say.
type Empty struct{}
