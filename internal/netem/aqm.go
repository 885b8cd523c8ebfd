package netem

import (
	"math"

	"halfback/internal/sim"
)

// The paper's §6 observes that AQM (it cites CoDel and PIE) attacks the
// bufferbloat problem from the router side and is "fully complementary"
// to reducing a flow's RTT count — "the improvements multiply". This
// file adds queue disciplines beyond drop-tail so that claim can be
// tested: CoDel (delay-based, per Nichols & Jacobson) and RED
// (probabilistic early drop), selectable per link.
//
// The Link keeps its drop-tail byte bound as a hard backstop in every
// mode; the discipline decides early drops beneath it.

// QueueDiscipline is the per-link queue management algorithm.
type QueueDiscipline uint8

const (
	// DropTail is the default: admit until the byte bound, then drop.
	DropTail QueueDiscipline = iota
	// CoDel drops at dequeue when packets have sat in the queue longer
	// than 5 ms for at least 100 ms, with the standard
	// inverse-sqrt control law.
	CoDel
	// RED drops probabilistically at enqueue as the EWMA queue length
	// moves between its min and max thresholds.
	RED
)

// String names the discipline.
func (q QueueDiscipline) String() string {
	switch q {
	case DropTail:
		return "droptail"
	case CoDel:
		return "codel"
	case RED:
		return "red"
	default:
		return "unknown"
	}
}

// CoDel's standard constants (Nichols & Jacobson, RFC 8289): the
// acceptable standing queue delay, and the sliding window in which it
// must be met at least once.
const (
	codelTarget   = 5 * sim.Millisecond
	codelInterval = 100 * sim.Millisecond
)

// RED's constants: the drop probability at the upper threshold and the
// EWMA gain. Its thresholds, between which the drop probability ramps
// from 0 to redMaxP, are 1/5 and 4/5 of the link's buffer, or of 1 MB
// when the buffer is unbounded.
const (
	redMaxP   float64 = 0.1
	redWeight float64 = 0.002
)

// codelState carries CoDel's control-law variables.
type codelState struct {
	dropping     bool
	firstAboveAt sim.Time // when delay first exceeded target (0 = not above)
	dropNextAt   sim.Time
	dropCount    int
	lastCount    int
}

// invSqrt returns 1/√n, the CoDel control law's drop-interval scaling.
func invSqrt(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 / math.Sqrt(float64(n))
}

// onDequeue implements the CoDel dequeue decision: it returns true when
// the packet at the head should be dropped instead of transmitted.
// sojourn is how long the packet waited in the queue.
func (c *codelState) onDequeue(sojourn sim.Duration, now sim.Time) bool {
	if sojourn < codelTarget {
		// Below target: leave dropping state.
		c.firstAboveAt = 0
		c.dropping = false
		return false
	}
	if c.firstAboveAt == 0 {
		c.firstAboveAt = now.Add(codelInterval)
		return false
	}
	if !c.dropping {
		if now >= c.firstAboveAt {
			// Delay has stayed above target for a full interval:
			// enter the dropping state.
			c.dropping = true
			// Control-law memory: restart from near the previous
			// drop rate if we were dropping recently.
			if c.dropCount > 2 && c.lastCount > 0 {
				c.dropCount = c.lastCount - 2
			} else {
				c.dropCount = 1
			}
			c.lastCount = c.dropCount
			c.dropNextAt = now.Add(sim.Duration(float64(codelInterval) * invSqrt(c.dropCount)))
			return true
		}
		return false
	}
	if now >= c.dropNextAt {
		c.dropCount++
		c.lastCount = c.dropCount
		c.dropNextAt = c.dropNextAt.Add(sim.Duration(float64(codelInterval) * invSqrt(c.dropCount)))
		return true
	}
	return false
}

// redState carries RED's EWMA.
type redState struct {
	avg float64
}

// onEnqueue returns true when RED decides to early-drop the arriving
// packet, given the instantaneous queue size and the buffer capacity in
// bytes.
func (r *redState) onEnqueue(queueBytes, bufferCap int, rng *sim.Rand) bool {
	if bufferCap <= 0 {
		bufferCap = 1 << 20
	}
	minBytes, maxBytes := bufferCap/5, bufferCap*4/5
	r.avg = (1-redWeight)*r.avg + redWeight*float64(queueBytes)
	switch {
	case r.avg < float64(minBytes):
		return false
	case r.avg >= float64(maxBytes):
		return true
	default:
		frac := (r.avg - float64(minBytes)) / float64(maxBytes-minBytes)
		return rng.Bool(frac * redMaxP)
	}
}
