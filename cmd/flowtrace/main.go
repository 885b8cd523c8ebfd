// Command flowtrace runs a single flow of any scheme over a configurable
// path and prints its full wire trace — every packet sent, dropped and
// delivered, with Halfback's proactive copies tagged '+' and reactive
// retransmissions '*'. It is the executable version of the paper's
// Fig. 3 walkthrough, for any scheme and any loss pattern.
//
// Examples:
//
//	flowtrace -scheme Halfback -bytes 14600 -drop 8
//	flowtrace -scheme TCP -bytes 14600 -drop 8          # watch the RTO instead
//	flowtrace -scheme JumpStart -bytes 100000 -loss 0.05
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"halfback/internal/experiment"
	"halfback/internal/netem"
	"halfback/internal/ptest"
	"halfback/internal/scheme"
	"halfback/internal/sim"
	"halfback/internal/trace"
	"halfback/internal/transport"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run traces one flow. Bad input is a usage error: one line on stderr
// and exit 2, never a panic out of the simulator.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, args ...any) int {
		fmt.Fprintf(stderr, "flowtrace: "+format+"\n", args...)
		return 2
	}
	fs := flag.NewFlagSet("flowtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		schemeName  = fs.String("scheme", "Halfback", "scheme to trace")
		bytes       = fs.Int("bytes", 10*netem.SegmentPayload, "flow size in bytes")
		rateMbps    = fs.Int64("rate", 15, "bottleneck rate, Mbit/s")
		rtt         = fs.Duration("rtt", 60*time.Millisecond, "path RTT")
		buf         = fs.Int("buffer", 115_000, "bottleneck buffer, bytes")
		loss        = fs.Float64("loss", 0, "random loss probability per direction")
		dropsArg    = fs.String("drop", "", "comma-separated segment numbers whose first copy is dropped")
		seed        = fs.Uint64("seed", 1, "simulation seed")
		advName     = fs.String("adversity", "none", "fault-injection preset on both directions: "+strings.Join(netem.AdversityPresetNames(), "|"))
		misbehave   = fs.String("misbehave", "none", "replace the receiver with a Byzantine attacker: none|"+strings.Join(ptest.AttackerNames(), "|"))
		validation  = fs.String("ackvalidation", "clamp", "sender policy for flagged ACKs: clamp|abort|off")
		deadline    = fs.Duration("flowdeadline", 0, "per-flow lifetime bound; the flow aborts (deadline) when it elapses; 0 disables")
		maxRetx     = fs.Int("maxretx", 0, "per-flow retransmission budget; the flow aborts (retx-budget) beyond it; 0 disables")
		maxTimeouts = fs.Int("maxtimeouts", 0, "consecutive-RTO give-up; the flow aborts (retx-budget) beyond it; 0 selects the default of 15, negative retries forever")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if _, err := scheme.New(*schemeName); err != nil {
		return fail("%v", err)
	}
	switch {
	case *bytes < 1:
		return fail("-bytes must be at least 1")
	case *rateMbps <= 0:
		return fail("-rate must be positive")
	case *rtt <= 0:
		return fail("-rtt must be positive")
	case *buf <= 0:
		return fail("-buffer must be positive")
	case !(*loss >= 0 && *loss <= 1): // positive form: NaN fails it
		return fail("-loss must be in [0, 1]")
	case *deadline < 0:
		return fail("-flowdeadline must not be negative")
	case *maxRetx < 0:
		return fail("-maxretx must not be negative")
	}
	adv, err := netem.AdversityPreset(*advName)
	if err != nil {
		return fail("%v", err)
	}
	if err := ptest.CheckAttacker(*misbehave); err != nil {
		return fail("%v", err)
	}
	var drops []int32 // segments whose first copy is dropped
	if *dropsArg != "" {
		for _, f := range strings.Split(*dropsArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return fail("bad -drop entry %q", f)
			}
			drops = append(drops, int32(v))
		}
	}

	ps := experiment.NewPathSim(*seed, netem.PathConfig{
		RateBps: *rateMbps * netem.Mbps, RTT: sim.Duration(*rtt),
		BufferBytes: *buf, LossProb: *loss,
	})
	ps.Opts.FlowDeadline = sim.Duration(*deadline)
	ps.Opts.MaxRetx = *maxRetx
	ps.Opts.MaxTimeouts = *maxTimeouts
	switch *validation {
	case "clamp":
		ps.Opts.AckValidation = transport.AckValidationClamp
	case "abort":
		ps.Opts.AckValidation = transport.AckValidationAbort
	case "off":
		ps.Opts.AckValidation = transport.AckValidationOff
	default:
		return fail("bad -ackvalidation %q (want clamp|abort|off)", *validation)
	}
	if *misbehave != "none" {
		ps.OnConn = func(c *transport.Conn) { ptest.Attach(c, *misbehave) }
	}
	ps.Path.Forward.SetAdversity(adv)
	ps.Path.Back.SetAdversity(adv)
	rec := trace.NewRecorder()
	rec.Attach(ps.Path.Net)

	ps.DropFirstCopies(drops...)

	st := ps.FetchOnce(scheme.MustNew(*schemeName), *bytes, 300*sim.Second)

	fmt.Fprintf(stdout, "flow: %s, %d bytes (%d segments) over %dMbps/%v, buffer %dB\n\n",
		*schemeName, *bytes, netem.SegmentsFor(*bytes), *rateMbps, *rtt, *buf)
	fmt.Fprint(stdout, rec.Sequence())
	s := rec.Summarize()
	fmt.Fprintf(stdout, "\ncompleted=%v fct=%v timeouts=%d\n", st.Completed, st.FCT(), st.Timeouts)
	if st.Aborted {
		fmt.Fprintf(stdout, "aborted: reason=%s at=%v\n", st.AbortReason, st.AbortedAt)
	}
	if *misbehave != "none" {
		fmt.Fprintf(stdout, "misbehavior: attacker=%s policy=%s flagged=%d first=%s\n",
			*misbehave, ps.Opts.AckValidation, st.MisbehaviorTotal(), st.FirstMisbehavior)
	}
	fmt.Fprintf(stdout, "wire: %d data sent (%d proactive, %d reactive), %d dropped, %d delivered, %d acks\n",
		s.DataSent, s.ProactiveSent, s.ReactiveSent, s.DataDropped, s.DataDelivered, s.AcksDelivered)
	return 0
}
