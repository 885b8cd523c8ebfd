package dist

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"net"
	"net/rpc"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"halfback/internal/fleet"
)

// Options tunes the coordinator. The zero value picks sane defaults.
type Options struct {
	// SlotsPerWorker bounds concurrent leases per worker and, because a
	// worker runs a lease's cells one after another, concurrent cell
	// executions per worker — the worker-side parallelism (default 4).
	SlotsPerWorker int
	// HeartbeatEvery is the Ping interval (default 1s).
	HeartbeatEvery time.Duration
	// HeartbeatMisses is how many Ping intervals may pass without a
	// reply before a worker is declared dead (default 3). The Ping
	// itself rides the reconnect path, so a worker behind a healing
	// partition survives the budget.
	HeartbeatMisses int
	// ConfigureTimeout bounds each Configure call (default 30s) — a
	// dialable but mute endpoint must not hang Connect or a reconnect.
	ConfigureTimeout time.Duration
	// RunCellTimeout bounds each lease, one RunCells call (default 10m —
	// cells legitimately run for minutes; the deadline exists so a
	// *trickling connection* cannot wedge dispatch forever, not to
	// police cell runtime). On expiry the connection is torn down and
	// the reconnect path takes over; re-running a cell is safe because
	// results are seed-determined.
	RunCellTimeout time.Duration

	// Key is the shared cluster secret. When set, every connection runs
	// the HMAC challenge/response handshake before RPC; when empty,
	// only loopback worker addresses are accepted.
	Key []byte
	// Dial, when non-nil, replaces the TCP dialer — the chaos-injection
	// seam. The handshake and RPC run over whatever it returns.
	Dial func(addr string) (net.Conn, error)
	// DialTimeout bounds each dial and each handshake (default 10s).
	DialTimeout time.Duration
	// RedialAttempts is how many times a failed connection is redialed
	// (with backoff) before the worker's cells are reassigned — the
	// reconnect-before-reassign budget (default 4).
	RedialAttempts int
	// RedialBackoff is the base backoff between redials; it doubles per
	// attempt, capped at 16x (default 200ms).
	RedialBackoff time.Duration

	// Logf, when non-nil, receives coordinator diagnostics.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.SlotsPerWorker <= 0 {
		o.SlotsPerWorker = 4
	}
	if o.HeartbeatEvery <= 0 {
		o.HeartbeatEvery = time.Second
	}
	if o.HeartbeatMisses <= 0 {
		o.HeartbeatMisses = 3
	}
	if o.ConfigureTimeout <= 0 {
		o.ConfigureTimeout = 30 * time.Second
	}
	if o.RunCellTimeout <= 0 {
		o.RunCellTimeout = 10 * time.Minute
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 10 * time.Second
	}
	if o.RedialAttempts <= 0 {
		o.RedialAttempts = 4
	}
	if o.RedialBackoff <= 0 {
		o.RedialBackoff = 200 * time.Millisecond
	}
	return o
}

// redialBackoff is the sleep before redial attempt number attempt
// (1-based): base, doubling per attempt and saturating at 16×base, well
// below the heartbeat death budget so redials never outlive their
// usefulness. It is zero before the first redial or for a non-positive
// base, monotone in attempt, and overflow-safe: a product past
// math.MaxInt64 saturates there.
func redialBackoff(base time.Duration, attempt int) time.Duration {
	if attempt < 1 || base <= 0 {
		return 0
	}
	shift := min(attempt-1, 4) // 16× is four doublings
	if base > math.MaxInt64>>shift {
		return math.MaxInt64
	}
	return base << shift
}

// ErrNoWorkers reports that every worker is dead. fleet treats any
// DispatchCell error as infrastructure failure and runs the cell
// locally, at most GOMAXPROCS cells at once, so a coordinator that
// outlives its whole fleet degrades to a local run instead of a dead
// one.
var ErrNoWorkers = errors.New("dist: no live workers")

// errCoordClosed aborts in-flight calls when the coordinator shuts
// down; errDraining fails the cells still queued at Drain or Close.
var (
	errCoordClosed = errors.New("dist: coordinator closed")
	errDraining    = errors.New("dist: coordinator draining — not leasing cells")
)

// isServerError reports whether err is an application-level error the
// worker itself returned (net/rpc's ServerError) — the connection
// works; redialing cannot change the answer.
func isServerError(err error) bool {
	var se rpc.ServerError
	return errors.As(err, &se)
}

// workerConn is the coordinator's view of one worker.
type workerConn struct {
	addr string

	// connMu serializes reconnects and guards client/connGen swaps;
	// connGen identifies one dialed connection so concurrent callers
	// that hit the same transport failure redial once, not N times.
	connMu  sync.Mutex
	client  *rpc.Client
	connGen int

	// fenced is the worker's latest fenced-RPC counter (stale
	// generations it refused), sampled from Configure/Ping replies.
	fenced atomic.Uint64

	// guarded by the coordinator's mu:
	dead  bool
	inUse int        // slots holding an outstanding lease
	sizer leaseSizer // what a cell has been costing on this worker
}

// current snapshots the live client and its connection generation.
func (wc *workerConn) current() (*rpc.Client, int) {
	wc.connMu.Lock()
	defer wc.connMu.Unlock()
	return wc.client, wc.connGen
}

// Metrics is the coordinator's end-of-run fault diagnostics: how rough
// the control plane was, and whether fencing had to do real work. A
// clean run is all zeros.
type Metrics struct {
	// Redials counts connections re-established after a transport
	// failure (reconnect-before-reassign successes).
	Redials uint64
	// Reassignments counts leases formed to re-run cells of a lease
	// whose worker died (the reconnect budget ran out).
	Reassignments uint64
	// FencedZombieAttempts sums, across workers, the RPCs refused from
	// stale generations.
	FencedZombieAttempts uint64
}

func (m Metrics) String() string {
	return fmt.Sprintf("redials=%d reassignments=%d fenced-zombie-attempts=%d",
		m.Redials, m.Reassignments, m.FencedZombieAttempts)
}

// Coordinator shards cells across a pool of workers; it implements
// fleet.Dispatcher. One Coordinator serves one run (one generation).
type Coordinator struct {
	meta fleet.JournalMeta
	opts Options
	gen  uint64

	mu       sync.Mutex
	workers  []*workerConn
	draining bool // Drain or Close: no new lease forms
	closed   bool
	// queue holds the cells DispatchCell callers are waiting on that no
	// lease carries yet, oldest first; lastErr is why the latest worker
	// died; leaseSizes counts formed leases by size class (bits.Len).
	queue      []*pendingCell
	lastErr    error
	leaseSizes [8]uint64

	redials   atomic.Uint64
	reassigns atomic.Uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// Connect dials the workers, runs the session handshake and configures
// each with the run's meta. At least one worker must come up;
// unreachable ones are logged and skipped (after the redial budget).
// Without a cluster key, non-loopback worker addresses are refused
// outright: the fabric never runs unauthenticated across a real
// network.
//
// journal is ignored. The run's journal rides on the fleet.Run the
// Coordinator dispatches for, and it is the one durable record of every
// cell: a worker keeps none, so a resumed coordinator re-executes
// whatever its journal lacks. The parameter stays for callers built
// against the older signature.
func Connect(addrs []string, journal *fleet.Journal, meta fleet.JournalMeta, opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	if len(opts.Key) == 0 {
		for _, addr := range addrs {
			if !LoopbackAddr(addr) {
				return nil, fmt.Errorf("dist: worker %s is not loopback and no cluster key is set — refusing to run unauthenticated across the network; set -cluster-key (or %s) on both sides", addr, KeyEnv)
			}
		}
	}
	c := &Coordinator{
		meta: meta,
		opts: opts,
		// A fresh generation per coordinator incarnation: workers
		// replace any session an earlier (crashed) coordinator left.
		// Monotone in wall time, so generations order incarnations and
		// Gen doubles as the fencing token.
		gen:  uint64(time.Now().UnixNano())<<8 | uint64(os.Getpid())&0xff,
		stop: make(chan struct{}),
	}
	var lastErr error
	for _, addr := range addrs {
		wc, err := c.establish(addr)
		if err != nil {
			c.logf("dist: worker %s unavailable: %v", addr, err)
			lastErr = err
			continue
		}
		c.workers = append(c.workers, wc)
	}
	if len(c.workers) == 0 {
		return nil, fmt.Errorf("dist: none of %d workers reachable (last error: %w)", len(addrs), lastErr)
	}
	for _, wc := range c.workers {
		c.wg.Add(1)
		go c.heartbeat(wc)
	}
	return c, nil
}

// establish makes the initial connection to one worker, spending the
// redial budget before giving up — chaos-grade networks may refuse the
// first few attempts. Permanent failures (bad key, protocol mismatch)
// abort immediately.
func (c *Coordinator) establish(addr string) (*workerConn, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.RedialAttempts; attempt++ {
		if !c.sleep(redialBackoff(c.opts.RedialBackoff, attempt)) {
			return nil, errCoordClosed
		}
		client, fenced, err := c.dialAndConfigure(addr)
		if err != nil {
			lastErr = err
			if isPermanent(err) {
				return nil, err
			}
			continue
		}
		wc := &workerConn{addr: addr, client: client, connGen: 1}
		wc.fenced.Store(fenced)
		return wc, nil
	}
	return nil, lastErr
}

// sleep waits d, aborting early on Close; reports whether it slept the
// full duration.
func (c *Coordinator) sleep(d time.Duration) bool {
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.stop:
		return false
	}
}

// dialAndConfigure runs the full session-establishment ladder against
// one worker: dial, handshake (version + mutual auth), and Configure
// under this coordinator's generation. Any rung failing tears the
// connection down and reports why; permanent errors mark failures
// redialing cannot fix.
func (c *Coordinator) dialAndConfigure(addr string) (*rpc.Client, uint64, error) {
	conn, err := c.dial(addr)
	if err != nil {
		return nil, 0, err
	}
	if err := handshakeTimed(conn, c.opts.DialTimeout, func(conn net.Conn) error {
		return clientHandshake(conn, c.opts.Key)
	}); err != nil {
		conn.Close()
		return nil, 0, err
	}
	client := rpc.NewClient(conn)
	args := &ConfigureArgs{Gen: c.gen, Proto: ProtoVersion, Meta: c.meta}
	var reply ConfigureReply
	if err := c.timedCall(addr, client, "Worker.Configure", args, &reply, c.opts.ConfigureTimeout); err != nil {
		client.Close()
		if isServerError(err) {
			// The worker itself refused (draining, fenced, version
			// mismatch): asking again over a fresh connection cannot
			// change its mind.
			return nil, 0, permanent(err)
		}
		return nil, 0, err
	}
	return client, reply.Fenced, nil
}

func (c *Coordinator) dial(addr string) (net.Conn, error) {
	if c.opts.Dial != nil {
		return c.opts.Dial(addr)
	}
	return net.DialTimeout("tcp", addr, c.opts.DialTimeout)
}

// timedCall issues one RPC with a hard deadline. On expiry the client
// is closed — the only reliable unwedge for a connection that is alive
// but trickling — which fails this and every other in-flight call on
// it; the reconnect path takes over from there.
func (c *Coordinator) timedCall(addr string, client *rpc.Client, method string, args, reply any, timeout time.Duration) error {
	call := client.Go(method, args, reply, make(chan *rpc.Call, 1))
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case done := <-call.Done:
		return done.Error
	case <-t.C:
		client.Close()
		<-call.Done
		return fmt.Errorf("dist: no %s reply from %s within %v", method, addr, timeout)
	case <-c.stop:
		return errCoordClosed
	}
}

// maxReconnectCycles bounds how many full redial budgets one RPC may
// spend before its caller reassigns — reconnect-before-reassign, but
// not reconnect-forever.
const maxReconnectCycles = 2

// callWorker is the fabric's one RPC path: a timed call that, on
// transport failure, redials the worker with bounded backoff and
// re-Configures idempotently under the same generation before trying
// again. Only when the budget is spent does the error escape — at
// which point the caller treats the worker as dead. Application-level
// errors (the worker answered "no") pass straight through.
func (c *Coordinator) callWorker(wc *workerConn, method string, args, reply any, timeout time.Duration) error {
	for cycle := 0; ; cycle++ {
		client, connGen := wc.current()
		if client == nil {
			return fmt.Errorf("dist: %s disconnected", wc.addr)
		}
		err := c.timedCall(wc.addr, client, method, args, reply, timeout)
		if err == nil || isServerError(err) || errors.Is(err, errCoordClosed) {
			return err
		}
		if cycle >= maxReconnectCycles {
			return err
		}
		if rerr := c.reconnect(wc, connGen); rerr != nil {
			if isPermanent(rerr) || errors.Is(rerr, errCoordClosed) {
				return rerr
			}
			return fmt.Errorf("%w (reconnect: %v)", err, rerr)
		}
	}
}

// reconnect re-establishes wc's connection: single-flight (concurrent
// callers that saw the same failed connGen ride one redial), bounded
// backoff between attempts, and an idempotent same-Gen Configure so
// the worker session survives untouched — its in-flight cells keep
// running.
func (c *Coordinator) reconnect(wc *workerConn, failedGen int) error {
	wc.connMu.Lock()
	defer wc.connMu.Unlock()
	if wc.connGen != failedGen {
		return nil // another caller already reconnected
	}
	if wc.client != nil {
		wc.client.Close()
	}
	var lastErr error
	for attempt := 1; attempt <= c.opts.RedialAttempts; attempt++ {
		// Back off before each try: the common cause is a partition or
		// stall that needs wall time to heal.
		if !c.sleep(redialBackoff(c.opts.RedialBackoff, attempt)) {
			return errCoordClosed
		}
		client, fenced, err := c.dialAndConfigure(wc.addr)
		if err != nil {
			lastErr = err
			if isPermanent(err) {
				return err
			}
			continue
		}
		wc.client = client
		wc.connGen++
		wc.fenced.Store(fenced)
		c.redials.Add(1)
		c.logf("dist: reconnected to %s (attempt %d)", wc.addr, attempt)
		return nil
	}
	return lastErr
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// Slots returns the dispatch window — the fleet worker count for the
// dispatching Map: every worker slot times the most cells one lease
// carries. Leases only form from cells that are waiting, so the Map
// needs that many DispatchCell callers parked here for every slot to be
// able to fill a lease; the callers beyond the slots cost a parked
// goroutine each.
func (c *Coordinator) Slots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers) * c.opts.SlotsPerWorker * leaseCap
}

// Live returns how many workers are currently usable.
func (c *Coordinator) Live() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveLocked()
}

func (c *Coordinator) liveLocked() int {
	n := 0
	for _, wc := range c.workers {
		if !wc.dead {
			n++
		}
	}
	return n
}

// Metrics snapshots the run's fault counters.
func (c *Coordinator) Metrics() Metrics {
	m := Metrics{
		Redials:       c.redials.Load(),
		Reassignments: c.reassigns.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, wc := range c.workers {
		m.FencedZombieAttempts += wc.fenced.Load()
	}
	return m
}

// markDead declares a worker unusable and closes its client, which
// fails every in-flight call on it — the lease-revocation path. Only
// reached after the reconnect budget is spent.
func (c *Coordinator) markDead(wc *workerConn, cause error) {
	c.mu.Lock()
	if wc.dead {
		c.mu.Unlock()
		return
	}
	wc.dead = true
	c.lastErr = cause
	c.pumpLocked() // with no worker left, the queue falls back to local execution
	c.mu.Unlock()
	c.logf("dist: worker %s dead (%v) — reassigning its cells", wc.addr, cause)
	client, _ := wc.current()
	if client != nil {
		client.Close()
	}
}

func (c *Coordinator) isDead(wc *workerConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return wc.dead
}

// heartbeat pings one worker until the coordinator closes. The Ping
// rides callWorker, so a transport wobble triggers reconnection rather
// than an instant death sentence; a worker is declared dead only when
// the full miss budget (interval × misses, including redials) yields
// no answer — or when the worker itself reports this generation stale,
// the "we are the zombie" signal.
func (c *Coordinator) heartbeat(wc *workerConn) {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.HeartbeatEvery)
	defer ticker.Stop()
	budget := c.opts.HeartbeatEvery * time.Duration(c.opts.HeartbeatMisses)
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		if c.isDead(wc) {
			return
		}
		var reply PingReply
		err := c.callWorker(wc, "Worker.Ping", &PingArgs{Gen: c.gen}, &reply, budget)
		if errors.Is(err, errCoordClosed) {
			return
		}
		if err != nil {
			c.markDead(wc, fmt.Errorf("heartbeat: %w", err))
			return
		}
		wc.fenced.Store(reply.Fenced)
	}
}

// Lease sizing (DESIGN.md §12 has the measurements that chose both
// constants). leaseTarget is how long a lease should keep its slot busy:
// long enough that the round trip (150–250 µs of wake-ups per lease on
// loopback) is a few per cent of it, short enough that the tail of a
// sweep and a draining worker wait milliseconds.
// leaseCap bounds a lease however cheap its cells look, which bounds
// both the damage of one misjudged lease and the dispatch window.
const (
	leaseTarget = 8 * time.Millisecond
	leaseCap    = 32
)

// leaseSizer is the coordinator's running estimate of what one cell
// costs on one worker: the wall time of that worker's leases divided by
// the cells they carried, halved towards each new observation, so one
// slow lease shrinks the next one at once while cheap ones grow it over
// a few leases. The zero value has observed nothing.
type leaseSizer struct {
	secPerCell float64
}

func (s *leaseSizer) observe(elapsed time.Duration, cells int) {
	obs := elapsed.Seconds() / float64(cells)
	if s.secPerCell == 0 {
		s.secPerCell = obs
		return
	}
	s.secPerCell = (s.secPerCell + obs) / 2
}

// size is how many cells the worker's next lease carries: as many as
// fit leaseTarget at the observed cost — one until something has been
// observed — but never more than leaseCap, nor than an even share of
// the queued cells among the live slots (so the end of a sweep is
// spread over every slot), nor fewer than one.
func (s leaseSizer) size(queued, liveSlots int) int {
	n := 1
	if s.secPerCell > 0 {
		n = int(leaseTarget.Seconds() / s.secPerCell)
	}
	share := (queued + liveSlots - 1) / liveSlots
	return max(1, min(n, leaseCap, share))
}

// pendingCell is one DispatchCell caller waiting for its cell. The
// fields below done are guarded by the coordinator's mu until done is
// closed, which publishes res and err to the caller.
type pendingCell struct {
	sweep, cell uint32
	done        chan struct{}
	resolved    bool // first result wins
	requeued    bool // its previous lease died
	res         *fleet.CellOutcome
	err         error
}

// resolveLocked delivers a cell's outcome to its caller; a second result
// for the same cell is dropped.
func (c *Coordinator) resolveLocked(p *pendingCell, res *fleet.CellOutcome, err error) {
	if p.resolved {
		return
	}
	p.resolved, p.res, p.err = true, res, err
	close(p.done)
}

// idleSlotLocked picks the least-loaded live worker with a free slot;
// nil when every live slot is taken.
func (c *Coordinator) idleSlotLocked() *workerConn {
	var best *workerConn
	for _, wc := range c.workers {
		if wc.dead || wc.inUse >= c.opts.SlotsPerWorker {
			continue
		}
		if best == nil || wc.inUse < best.inUse {
			best = wc
		}
	}
	return best
}

// pumpLocked is the one place leases form: while cells are queued and a
// live worker has a free slot, it cuts a lease off the head of the queue
// — the cells already waiting, never waiting for more — and starts it.
// It runs whenever either side of that condition may have changed: a
// cell was queued, a lease ended, a worker died. With no live worker (or
// once draining) the queue is failed instead, which makes fleet run
// those cells locally — or, in a cancelled sweep, report them cancelled.
func (c *Coordinator) pumpLocked() {
	for len(c.queue) > 0 {
		live := c.liveLocked()
		if c.draining || live == 0 {
			err := ErrNoWorkers
			switch {
			case c.draining:
				err = errDraining
			case c.lastErr != nil:
				err = fmt.Errorf("%w (last worker error: %v)", ErrNoWorkers, c.lastErr)
			}
			for _, p := range c.queue {
				c.resolveLocked(p, nil, err)
			}
			c.queue = nil
			return
		}
		wc := c.idleSlotLocked()
		if wc == nil {
			return
		}
		n := wc.sizer.size(len(c.queue), live*c.opts.SlotsPerWorker)
		// A lease is cells of one sweep: they travel as one RunCells call.
		sweep := c.queue[0].sweep
		var lease []*pendingCell
		reassigned := false
		for len(lease) < n && len(c.queue) > 0 && c.queue[0].sweep == sweep {
			p := c.queue[0]
			c.queue = c.queue[1:]
			lease = append(lease, p)
			reassigned = reassigned || p.requeued
		}
		if reassigned {
			c.reassigns.Add(1)
		}
		c.leaseSizes[min(bits.Len(uint(len(lease))), len(c.leaseSizes)-1)]++
		wc.inUse++
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.attempt(wc, lease)
		}()
	}
}

// DispatchCell implements fleet.Dispatcher: queue the cell for the next
// lease and wait for its outcome. A cell whose lease died (the worker
// stayed unreachable past the reconnect budget) is leased again to a
// survivor. Only when every worker is gone does it report ErrNoWorkers,
// making fleet run the cell locally. The label stays on this side: the
// worker derives it from its own program.
func (c *Coordinator) DispatchCell(sweep, cell uint32, label string) (*fleet.CellOutcome, error) {
	p := &pendingCell{sweep: sweep, cell: cell, done: make(chan struct{})}
	c.mu.Lock()
	c.queue = append(c.queue, p)
	c.pumpLocked()
	c.mu.Unlock()
	<-p.done
	return p.res, p.err
}

// attempt sends the lease to wc as one RunCells call and delivers the
// outcomes. An error means the worker (or its session) failed beyond the
// reconnect budget, or refused: it is revoked and the lease's cells go
// back to the head of the queue for the survivors.
func (c *Coordinator) attempt(wc *workerConn, lease []*pendingCell) {
	args := &RunCellsArgs{Gen: c.gen, Sweep: lease[0].sweep, Cells: make([]uint32, len(lease))}
	for i, p := range lease {
		args.Cells[i] = p.cell
	}
	var reply RunCellsReply
	start := time.Now()
	err := c.callWorker(wc, "Worker.RunCells", args, &reply, c.opts.RunCellTimeout)
	elapsed := time.Since(start)
	if err == nil && len(reply.Outcomes) != len(lease) {
		err = fmt.Errorf("dist: %s answered a lease of %d cells with %d outcomes", wc.addr, len(lease), len(reply.Outcomes))
	}
	if err != nil {
		c.markDead(wc, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	wc.inUse--
	if err != nil {
		for _, p := range lease {
			p.requeued = true
		}
		c.queue = append(lease, c.queue...)
	} else {
		wc.sizer.observe(elapsed, len(lease))
		for i, p := range lease {
			c.resolveLocked(p, &reply.Outcomes[i], nil)
		}
	}
	c.pumpLocked()
}

// SweepDone does nothing: a worker is never told that a sweep has ended
// (protocol v6). It stays because benchmark/probes.go, which times this
// package's round trip, calls it.
func (c *Coordinator) SweepDone(sweep uint32) {}

// ShutdownWorkers asks every live worker process to exit — the clean
// end of a run whose workers this coordinator owns. A worker that does
// not answer within DialTimeout is logged and left behind.
func (c *Coordinator) ShutdownWorkers() {
	c.mu.Lock()
	workers := append([]*workerConn(nil), c.workers...)
	c.mu.Unlock()
	for _, wc := range workers {
		if c.isDead(wc) {
			continue
		}
		client, _ := wc.current()
		if client == nil {
			continue
		}
		// Deadlined like every other RPC: a worker that accepts but never
		// answers must not hold a finished run.
		err := c.timedCall(wc.addr, client, "Worker.Shutdown", &ShutdownArgs{}, &Empty{}, c.opts.DialTimeout)
		if err != nil {
			c.logf("dist: Shutdown to %s undelivered: %v", wc.addr, err)
		}
	}
}

// Drain is the coordinator's half of a graceful interrupt: the cells no
// lease carries yet fail at once (the cancelled sweep reports them as
// not started), in-flight leases finish and merge, and no new lease
// forms. Call it after cancelling the sweep's context. Idempotent.
func (c *Coordinator) Drain() {
	c.mu.Lock()
	c.draining = true
	c.pumpLocked()
	c.mu.Unlock()
}

// Close stops heartbeats, fails queued and in-flight cells, and
// disconnects. Workers keep running (a resumed coordinator may
// reconnect to them) unless ShutdownWorkers was called first.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed, c.draining = true, true
	c.pumpLocked()
	sizes := c.leaseSizes
	c.mu.Unlock()
	close(c.stop)
	c.wg.Wait()
	c.logf("dist: lease sizes 1:%d 2-3:%d 4-7:%d 8-15:%d 16-31:%d 32-63:%d",
		sizes[1], sizes[2], sizes[3], sizes[4], sizes[5], sizes[6])
	for _, wc := range c.workers {
		client, _ := wc.current()
		if client != nil {
			client.Close()
		}
	}
}
