package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail value.
const tailBeyond = 10

// median returns the middle of xs (the mean of the two middle values for
// an even count) and NaN for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailBeyond samples above it: the (tailBeyond+1)-th largest value, and
// the percentile it sits at, 100·(n−tailBeyond)/n. With tailBeyond or
// fewer samples no such percentile exists; the maximum is returned at
// percentile 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// pushCount tallies one async-push episode from both ends of the wire.
// A push the server never processed because its version budget had
// already closed is drained, not failed: how many land in that window
// depends only on scheduling, so drained pushes are left out of both
// attempted and failed.
type pushCount struct {
	sent        int // pushes the clients wrote to the wire
	accepted    int // folded into the buffer (AsyncResult.Pushes; includes quarantined)
	stale       int // rejected for exceeding MaxStaleness
	quarantined int // accepted, then rejected by the integrity screen
	errored     int // client pull/push round trips that failed before the budget closed
}

// tally returns attempted and failed pushes and the drained remainder.
func (c pushCount) tally() (attempted, failed, drained int) {
	processed := c.accepted + c.stale
	drained = c.sent - processed
	if drained < 0 {
		drained = 0
	}
	attempted = processed + c.errored
	failed = c.stale + c.quarantined + c.errored
	return attempted, failed, drained
}

// median0 is median with 0 for an empty sample, for per-layer values a
// workload may never record.
func median0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return len(v) > 0
}
