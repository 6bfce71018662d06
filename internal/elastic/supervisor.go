package elastic

import (
	"errors"
	"fmt"

	"mrbc/internal/dgalois"
	"mrbc/internal/gluon"
)

// In-process kill/restore supervisor: the single-process analog of the
// bcctl recovery loop, driving an engine run function through seeded
// host-kill schedules. Each attempt runs with at most one pending kill
// armed; when it fires (the run aborts with a Killed *dgalois.
// FaultError), the supervisor rolls back to the latest boundary
// snapshot in its sink and re-runs. Because batch re-execution is
// deterministic, the surviving run's paper-model Stats.Bytes/Messages
// equal the kill-free run's exactly; the discarded segments' volume is
// isolated in Stats.Faults (RecoveryBytes/RecoveryMessages).

// RunFunc executes one attempt: resume from the given snapshot (nil:
// from scratch), checkpointing into the supervisor's sink, with the
// given kills armed in the attempt's fault plan. Implementations close
// over the engine entry point (mrbcdist.RunChecked) and its options.
type RunFunc func(resume *Snapshot, kills []gluon.Kill) ([]float64, dgalois.Stats, error)

// Report summarizes one supervised run's recovery history.
type Report struct {
	// Attempts counts engine runs, including the successful one.
	Attempts int
	// Kills counts host-kill events that fired.
	Kills int
	// Restores counts attempts resumed from a boundary snapshot (a kill
	// in batch 0 restarts from scratch and is not a restore).
	Restores int
	// ResumeBatches records each post-kill attempt's resume boundary
	// (0 = from scratch), in order.
	ResumeBatches []int
}

// Supervisor drives RunFuncs to completion under a kill schedule.
type Supervisor struct {
	// Sink receives boundary checkpoints and feeds restores. Required.
	Sink Sink
	// Bus, when non-nil, receives host.down/rollback/resumed events.
	Bus *Bus
	// Kills is the seeded host-kill schedule; kills are armed one per
	// attempt, in order, and consumed when they fire.
	Kills []gluon.Kill
	// MaxAttempts bounds the recovery loop (default len(Kills)+2).
	MaxAttempts int
}

// Run executes the supervised loop and returns the surviving run's
// scores and stats, with the recovery accounting folded into
// Stats.Faults. A non-kill fault (or a decode failure on a restore)
// stops the loop and is returned as the error.
func (s *Supervisor) Run(run RunFunc) ([]float64, dgalois.Stats, *Report, error) {
	if s.Sink == nil {
		return nil, dgalois.Stats{}, nil, errors.New("elastic: supervisor needs a sink")
	}
	maxAttempts := s.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(s.Kills) + 2
	}
	rep := &Report{}
	var recoveryBytes, recoveryMessages int64
	next := 0 // next unfired kill
	epoch := 1
	for {
		if rep.Attempts >= maxAttempts {
			return nil, dgalois.Stats{}, rep, fmt.Errorf("elastic: %d attempts exhausted with %d of %d kills fired", rep.Attempts, rep.Kills, len(s.Kills))
		}
		rep.Attempts++
		var resume *Snapshot
		var base Snapshot
		if _, data, err := s.Sink.Latest(); err == nil {
			snap, derr := Decode(data)
			if derr != nil {
				return nil, dgalois.Stats{}, rep, fmt.Errorf("elastic: restore: %w", derr)
			}
			resume = snap
			base = *snap
		} else if !errors.Is(err, ErrNoCheckpoint) {
			return nil, dgalois.Stats{}, rep, err
		}
		if rep.Attempts > 1 {
			boundary := 0
			if resume != nil {
				boundary = resume.NextBatch
				rep.Restores++
			}
			rep.ResumeBatches = append(rep.ResumeBatches, boundary)
			s.Bus.Publish(Event{Topic: TopicRollback, Host: -1, Epoch: epoch, Batch: boundary})
			s.Bus.Publish(Event{Topic: TopicResumed, Host: -1, Epoch: epoch, Batch: boundary})
		}
		var kills []gluon.Kill
		if next < len(s.Kills) {
			kills = s.Kills[next : next+1]
		}
		scores, stats, err := run(resume, kills)
		if err == nil {
			if stats.Faults == nil {
				stats.Faults = &dgalois.FaultStats{}
			}
			stats.Faults.Kills += int64(rep.Kills)
			stats.Faults.Restores += int64(rep.Restores)
			stats.Faults.RecoveryBytes += recoveryBytes
			stats.Faults.RecoveryMessages += recoveryMessages
			return scores, stats, rep, nil
		}
		var fe *dgalois.FaultError
		if !errors.As(err, &fe) || !fe.Killed {
			return nil, stats, rep, err
		}
		// The armed kill fired: the aborted segment's paper-model volume
		// (everything past the resume boundary) is discarded and
		// re-executed, so it is recovery cost, not model cost.
		rep.Kills++
		next++
		recoveryBytes += stats.Bytes - base.Bytes
		recoveryMessages += stats.Messages - base.Messages
		s.Bus.Publish(Event{Topic: TopicHostDown, Host: fe.Host, Epoch: epoch, Batch: base.NextBatch,
			Detail: fe.Reason})
		epoch++
	}
}
