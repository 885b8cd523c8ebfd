package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"halfback/internal/fleet"
)

// StartFunc runs one tool's full sweep program on a worker: it re-parses
// meta.Args exactly like `-resume` does, attaches run (the Serve hook)
// to every sweep, and returns when the program completes or ctx is
// canceled. It must not print to stdout — the coordinator owns output.
type StartFunc func(ctx context.Context, meta fleet.JournalMeta, run *fleet.Run) error

// WorkerOptions configures a worker process.
type WorkerOptions struct {
	// Start runs the configured program (required).
	Start StartFunc
	// RegisterWait bounds how long a RunCells call waits for the program
	// to offer its sweep (default 30s). The program registers each sweep
	// it reaches and runs on, so a sweep the coordinator asks for is at
	// most a program start-up away; a worker that blows this deadline
	// has a hung or dead program, and the erroring call makes the
	// coordinator reassign the lease.
	RegisterWait time.Duration
	// Key is the shared cluster secret; when set, every accepted
	// connection must pass the HMAC handshake before RPC.
	Key []byte
	// Logf, when non-nil, receives worker diagnostics (stderr-style).
	Logf func(format string, args ...any)
}

func (o WorkerOptions) registerWait() time.Duration {
	if o.RegisterWait <= 0 {
		return 30 * time.Second
	}
	return o.RegisterWait
}

// drainFlush is how long a drained worker process outlives its drain.
const drainFlush = 300 * time.Millisecond

// handshakeTimeout bounds the pre-RPC handshake on each accepted
// connection — a garbage or stalled peer must not pin a goroutine.
const handshakeTimeout = 10 * time.Second

// Worker is one worker process's RPC state: at most one live session (a
// generation + the running program) at a time.
type Worker struct {
	opts WorkerOptions

	mu   sync.Mutex
	sess *session

	// fenced counts RPCs refused from stale generations — reported in
	// Configure/Ping replies for the coordinator's metrics line.
	fenced atomic.Uint64

	// drainMu guards draining and inflight; drainCond wakes Drain when
	// the last in-flight lease ends. (A WaitGroup cannot express this:
	// Add racing Wait at counter zero is illegal, and RunCells arrivals
	// are concurrent with Drain by design.)
	drainMu   sync.Mutex
	drainCond *sync.Cond
	// draining is set by Drain: in-flight leases finish, new ones are
	// refused.
	draining bool
	inflight int

	stopOnce sync.Once
	done     chan struct{}
}

// NewWorker builds a worker. Serve must be called to accept sessions.
func NewWorker(opts WorkerOptions) *Worker {
	w := &Worker{opts: opts, done: make(chan struct{})}
	w.drainCond = sync.NewCond(&w.drainMu)
	return w
}

// beginLease admits one lease into the in-flight count, or refuses it if
// the worker is draining.
func (w *Worker) beginLease() bool {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	if w.draining {
		return false
	}
	w.inflight++
	return true
}

func (w *Worker) endLease() {
	w.drainMu.Lock()
	w.inflight--
	if w.inflight == 0 {
		w.drainCond.Broadcast()
	}
	w.drainMu.Unlock()
}

func (w *Worker) isDraining() bool {
	w.drainMu.Lock()
	defer w.drainMu.Unlock()
	return w.draining
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// Done is closed when the worker stops: after a Shutdown RPC, once the
// connection that asked for it closes; after a signal's drain; or on
// stdin EOF under a forking parent.
func (w *Worker) Done() <-chan struct{} { return w.done }

// Stop tears the worker down immediately: the live session is canceled
// and Serve returns. Idempotent. In-flight leases are abandoned — use
// Drain for the graceful path.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		close(w.done)
		w.mu.Lock()
		sess := w.sess
		w.mu.Unlock()
		if sess != nil {
			sess.teardown()
		}
	})
}

// Drain is the graceful stop: refuse new leases, let in-flight ones
// finish and reply, then Stop. Idempotent; returns when the worker is
// down.
func (w *Worker) Drain() {
	w.drainMu.Lock()
	if w.draining {
		w.drainMu.Unlock()
		<-w.done
		return
	}
	w.draining = true
	w.logf("dist worker: draining — finishing in-flight leases")
	for w.inflight > 0 {
		w.drainCond.Wait()
	}
	w.drainMu.Unlock()
	w.Stop()
}

// Serve accepts coordinator connections on lis until Stop. Every
// connection must pass the session handshake (version check, and — when
// the worker is keyed — mutual HMAC authentication) before a single
// RPC byte is decoded.
func (w *Worker) Serve(lis net.Listener) error {
	go func() {
		<-w.done
		lis.Close()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			select {
			case <-w.done:
				return nil
			default:
				return err
			}
		}
		go w.serveConn(conn)
	}
}

// serveConn runs the handshake and then net/rpc on one connection. A
// Shutdown asked on the connection stops the worker once it closes:
// net/rpc writes a reply only after its handler returns, so stopping
// in the handler would race the reply out.
func (w *Worker) serveConn(conn net.Conn) {
	if err := handshakeTimed(conn, handshakeTimeout, func(conn net.Conn) error {
		return serverHandshake(conn, w.opts.Key)
	}); err != nil {
		w.logf("dist worker: handshake with %v failed: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	api := &workerAPI{w: w}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Worker", api); err != nil {
		w.logf("dist worker: %v", err)
		conn.Close()
		return
	}
	srv.ServeConn(conn)
	if api.shutdown.Load() {
		w.Stop()
	}
}

// session is one configured run on a worker: the generation that owns
// it, the program goroutine, and the sweeps the program has offered so
// far.
type session struct {
	gen    uint64
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	cond     *sync.Cond
	sweeps   map[uint32]*sweepState
	finished bool  // program goroutine returned
	err      error // its terminal error
	exited   chan struct{}
}

// sweepState is one sweep the program has registered: its size and the
// runner of its cells.
type sweepState struct {
	n   int
	run func(cell uint32) *fleet.CellOutcome
}

func newSession(gen uint64) *session {
	ctx, cancel := context.WithCancel(context.Background())
	s := &session{
		gen: gen, ctx: ctx, cancel: cancel,
		sweeps: make(map[uint32]*sweepState),
		exited: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// ServeSweep implements fleet.SweepServer: it publishes the sweep's
// cell runner for RunCells calls, for as long as the session lives, and
// returns, so the program runs on to its next sweep. A torn-down
// session refuses the sweep, failing its cells.
func (s *session) ServeSweep(sweep uint32, n int, run func(cell uint32) *fleet.CellOutcome) error {
	if err := s.ctx.Err(); err != nil {
		return err
	}
	s.mu.Lock()
	s.sweeps[sweep] = &sweepState{n: n, run: run}
	s.cond.Broadcast()
	s.mu.Unlock()
	return nil
}

// waitSweep blocks until the program registers the sweep — or errors
// when the program exits, the session is torn down, or the wait
// deadline passes (a hung program; the coordinator reassigns).
func (s *session) waitSweep(id uint32, wait time.Duration) (*sweepState, error) {
	deadline := time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		// Teardown wins over a registered sweep: a stopped worker must
		// refuse new leases even though the closures are still in memory.
		if err := s.ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: session torn down: %w", err)
		}
		if ss := s.sweeps[id]; ss != nil {
			return ss, nil
		}
		if s.finished {
			if s.err != nil {
				return nil, fmt.Errorf("dist: worker program exited before sweep %d: %w", id, s.err)
			}
			return nil, fmt.Errorf("dist: worker program completed without offering sweep %d", id)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("dist: program did not offer sweep %d within %v", id, wait)
		}
		s.cond.Wait()
	}
}

// finish records the program goroutine's exit.
func (s *session) finish(err error) {
	s.mu.Lock()
	s.finished, s.err = true, err
	s.cond.Broadcast()
	s.mu.Unlock()
	close(s.exited)
}

// teardown cancels the session and waits for its program to exit. A
// replacement Configure has made the session stale before calling it, so
// an in-flight lease the cancellation unblocks has its results withheld
// by RunCells' closing liveSession check: nothing the old session
// computes reaches a coordinator any more, which is the fencing
// guarantee the replacement relies on.
func (s *session) teardown() {
	s.cancel()
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
	<-s.exited
}

// workerAPI is one connection's RPC surface; only these methods are
// exported to the wire.
type workerAPI struct {
	w *Worker
	// shutdown is set by a Shutdown on this connection.
	shutdown atomic.Bool
}

// Configure establishes the session for args.Gen: idempotent for the
// live generation, a full replace for a newer one — and a fencing
// refusal for an older one, so a zombie coordinator incarnation can
// never steal the worker back from its successor.
func (a *workerAPI) Configure(args *ConfigureArgs, reply *ConfigureReply) error {
	w := a.w
	reply.Fenced = w.fenced.Load()
	if args.Proto != ProtoVersion {
		return fmt.Errorf("dist: protocol version mismatch: the coordinator speaks v%d, this worker speaks v%d — one side is a stale build; rebuild both sides from the same source", args.Proto, ProtoVersion)
	}
	if w.isDraining() {
		return errors.New("dist: worker draining — not accepting sessions")
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	select {
	case <-w.done:
		return errors.New("dist: worker stopping")
	default:
	}
	if s := w.sess; s != nil && s.gen == args.Gen {
		// Reconnect from the same coordinator incarnation: the program is
		// already running.
		return nil
	}
	if s := w.sess; s != nil && args.Gen < s.gen {
		// Generations are minted from wall time, so a lower Gen is an
		// older coordinator incarnation — a zombie. Fence it off: it
		// may not replace the live session, and (via liveSession) none
		// of its leases land either.
		reply.Fenced = w.fenced.Add(1)
		return fmt.Errorf("dist: fenced: coordinator generation %d superseded by %d", args.Gen, s.gen)
	}
	if s := w.sess; s != nil {
		w.logf("dist worker: replacing session gen=%d with gen=%d", s.gen, args.Gen)
		w.sess = nil
		w.mu.Unlock()
		s.teardown()
		w.mu.Lock()
	}

	sess := newSession(args.Gen)
	w.sess = sess
	meta := args.Meta
	go func() {
		err := w.opts.Start(sess.ctx, meta, &fleet.Run{Serve: sess})
		if err != nil && sess.ctx.Err() == nil {
			w.logf("dist worker: program exited: %v", err)
		}
		sess.finish(err)
	}()
	w.logf("dist worker: session gen=%d configured (%s seed=%d)", args.Gen, meta.Tool, meta.Seed)
	return nil
}

// liveSession returns the session owning gen, or an error the
// coordinator treats as this worker being unusable. A mismatch is a
// fencing event: the caller's generation is not the one this worker
// serves, so its request must not touch the live run.
func (w *Worker) liveSession(gen uint64) (*session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sess == nil || w.sess.gen != gen {
		w.fenced.Add(1)
		return nil, fmt.Errorf("dist: stale generation %d", gen)
	}
	return w.sess, nil
}

// RunCells executes one lease: its cells run in order, on this call's
// goroutine, through the sweep's registered runner (panic capture
// included), and the reply carries their wire outcomes in the same
// order. Refused while draining; abandoned between cells once the
// session is torn down; and if the session was replaced while the lease
// ran (a zombie coordinator losing a race with its successor), the
// results are withheld, so they land in no journal.
func (a *workerAPI) RunCells(args *RunCellsArgs, reply *RunCellsReply) error {
	w := a.w
	if !w.beginLease() {
		return errors.New("dist: worker draining — not accepting cells")
	}
	defer w.endLease()
	sess, err := w.liveSession(args.Gen)
	if err != nil {
		return err
	}
	ss, err := sess.waitSweep(args.Sweep, w.opts.registerWait())
	if err != nil {
		return err
	}
	for _, cell := range args.Cells {
		if int(cell) >= ss.n {
			return fmt.Errorf("dist: cell %d out of range for sweep %d (n=%d)", cell, args.Sweep, ss.n)
		}
	}
	outcomes := make([]fleet.CellOutcome, len(args.Cells))
	for i, cell := range args.Cells {
		if err := sess.ctx.Err(); err != nil {
			return fmt.Errorf("dist: session torn down mid-lease: %w", err)
		}
		outcomes[i] = *ss.run(cell)
	}
	if _, err := w.liveSession(args.Gen); err != nil {
		return fmt.Errorf("dist: fenced mid-lease: %w", err)
	}
	reply.Outcomes = outcomes
	return nil
}

// Ping answers the heartbeat for a live generation.
func (a *workerAPI) Ping(args *PingArgs, reply *PingReply) error {
	w := a.w
	reply.Fenced = w.fenced.Load()
	_, err := w.liveSession(args.Gen)
	return err
}

// Shutdown stops the worker process once this connection closes — by
// the coordinator's Close or its death — so the reply is out first.
func (a *workerAPI) Shutdown(_ *ShutdownArgs, _ *Empty) error {
	a.w.logf("dist worker: shutdown requested")
	a.shutdown.Store(true)
	return nil
}

// listenLinePrefix is what a worker prints (stdout, own line) once it
// accepts connections; Fork scans for it to learn the bound address.
const listenLinePrefix = "DIST WORKER "

// stdinExitEnv marks a worker forked by a coordinator: when set, stdin
// EOF (the parent died) stops the worker, so `-distributed` runs never
// leak children past their coordinator.
const stdinExitEnv = "HALFBACK_DIST_STDIN_EXIT"

// ServeWorker is the `-serve-worker` entry point shared by the CLIs. It
// binds addr (host:0 picks a port; a non-loopback bind requires
// opts.Key), announces the bound address on stdout, runs a worker built
// from opts, and serves coordinator sessions until a Shutdown RPC, a
// signal, or — for forked workers — stdin EOF. The first SIGINT/SIGTERM
// drains gracefully (in-flight cells finish and reply, then exit 130);
// a second signal force-quits. Returns the process exit code: 0 clean,
// 130 interrupted, 2 usage/bind error.
func ServeWorker(addr string, opts WorkerOptions) int {
	logf := opts.Logf
	if len(opts.Key) == 0 && !LoopbackAddr(addr) {
		if logf != nil {
			logf("dist worker: refusing to bind %s without a cluster key — a non-loopback worker must authenticate its coordinator; set -cluster-key or %s (or bind 127.0.0.1)", addr, KeyEnv)
		}
		return 2
	}
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		if logf != nil {
			logf("dist worker: listen %s: %v", addr, err)
		}
		return 2
	}
	fmt.Printf("%s%s\n", listenLinePrefix, lis.Addr())
	w := NewWorker(opts)

	var interrupted atomic.Bool
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		interrupted.Store(true)
		if logf != nil {
			logf("dist worker: signal received — draining (in-flight cells will finish; signal again to force quit)")
		}
		go w.Drain()
		<-ch
		os.Exit(130)
	}()
	if os.Getenv(stdinExitEnv) != "" {
		go func() {
			io.Copy(io.Discard, os.Stdin)
			w.Stop()
		}()
	}

	err = w.Serve(lis)
	// Serve returns as soon as Stop has begun; Stop returns to every caller
	// only once the session is torn down and its program has exited.
	w.Stop()
	if err != nil {
		if logf != nil {
			logf("dist worker: %v", err)
		}
		return 1
	}
	if interrupted.Load() {
		// net/rpc writes a lease's reply after its handler returns, so
		// the drain's last replies may still be on their way out: give
		// them time to reach the coordinator before the process dies.
		time.Sleep(drainFlush)
		return 130
	}
	return 0
}
