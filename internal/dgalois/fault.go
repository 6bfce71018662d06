package dgalois

import (
	"errors"
	"fmt"
	"time"

	"mrbc/internal/gluon"
)

// FaultError is the structured failure an exchange raises when the
// transport cannot complete it within its deadline (e.g. a host stalled
// past it, or killed). It aborts the run cleanly instead of deadlocking
// the BSP barrier; consumers surface it through their *Checked run
// variants.
type FaultError struct {
	Host     int  // implicated host, -1 if none identified
	Exchange int  // BSP exchange index that timed out
	Step     int  // delivery step at which the deadline expired
	Pending  int  // messages still undelivered or unacknowledged
	Killed   bool // the implicated host is dead (kill event), not slow
	Reason   string
}

func (e *FaultError) Error() string {
	host := "unknown host"
	if e.Host >= 0 {
		host = fmt.Sprintf("host %d", e.Host)
	}
	if e.Killed {
		return fmt.Sprintf("dgalois: exchange %d lost %s at delivery step %d (%d messages pending): %s",
			e.Exchange, host, e.Step, e.Pending, e.Reason)
	}
	return fmt.Sprintf("dgalois: exchange %d exceeded its deadline at delivery step %d (%s, %d messages pending): %s",
		e.Exchange, e.Step, host, e.Pending, e.Reason)
}

// faultErrorFrom converts a transport-layer failure (a stalled,
// severed, or killed peer) into the substrate's structured FaultError,
// so engine callers see one error type regardless of whether the
// network was simulated or real.
func faultErrorFrom(err error) *FaultError {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe
	}
	var te *gluon.TransportError
	if errors.As(err, &te) {
		return &FaultError{Host: te.Host, Exchange: te.Exchange, Step: te.Steps, Pending: te.Pending, Killed: te.Killed, Reason: te.Reason}
	}
	return &FaultError{Host: -1, Exchange: -1, Reason: err.Error()}
}

// abortPanic carries a FaultError up the BSP driver's stack; Capture
// converts it back into an error at the run boundary.
type abortPanic struct{ err *FaultError }

// Abort unwinds the calling BSP driver with the given structured error,
// exactly as a failed exchange would; the nearest Capture converts it
// back into the error. The pipelined batch runner uses it to take every
// batch goroutine down the same abort path once one of them failed.
func Abort(err *FaultError) {
	panic(abortPanic{err: err})
}

// Capture runs fn and converts a transport abort into its FaultError.
// Any other panic propagates unchanged.
func Capture(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if a, ok := r.(abortPanic); ok {
				err = a.err
				return
			}
			panic(r)
		}
	}()
	fn()
	return nil
}

// FaultStats aggregates the reliable-delivery protocol's activity, read
// from the transport's shared state machine, plus the elastic layer's
// recovery cost. Retry and framing bytes are accounted here, strictly
// apart from Stats.Bytes, so the paper-model communication volume stays
// comparable with and without the protocol underneath.
type FaultStats struct {
	gluon.LinkStats

	// Elastic-recovery accounting: paper-model volume discarded and
	// re-executed after host kills lives here, never in Stats.Bytes/
	// Messages, so the surviving run's model counters match a kill-free
	// run exactly.
	Kills            int64 // host-kill events that fired
	Restores         int64 // attempts resumed from a boundary snapshot
	RecoveryBytes    int64 // paper-model bytes of discarded segments
	RecoveryMessages int64 // paper-model messages of discarded segments
}

// add accumulates another snapshot (for Stats.Add).
func (f *FaultStats) add(o *FaultStats) {
	f.LinkStats.Add(&o.LinkStats)
	f.Kills += o.Kills
	f.Restores += o.Restores
	f.RecoveryBytes += o.RecoveryBytes
	f.RecoveryMessages += o.RecoveryMessages
}

// roundImbalance computes one round's load-imbalance sample: the
// max/mean ratio of per-host compute time over the hosts that actually
// computed this round (d > 0). Idle hosts are excluded from the mean —
// dividing by all hosts would silently inflate the ratio on rounds
// where part of the cluster legitimately has no work (e.g. a batch
// whose frontier touches few partitions), which is not what Table 1's
// load-imbalance estimate measures. Returns ok=false when no host
// computed.
func roundImbalance(durations []time.Duration) (imb float64, ok bool) {
	var max, sum time.Duration
	participants := 0
	for _, d := range durations {
		if d <= 0 {
			continue
		}
		participants++
		sum += d
		if d > max {
			max = d
		}
	}
	if participants == 0 {
		return 0, false
	}
	mean := float64(sum) / float64(participants)
	return float64(max) / mean, true
}
