package main

import (
	"fmt"
	"math"
	"os"
)

// relTol is the correctness gate's tolerance: every score must be
// finite and within relTol·max(1, |oracle|) of brandes.Sequential on the
// same sources. Distributed runs sum dependency contributions in a
// different order than the sequential oracle, so scores agree closely
// but not bitwise.
const relTol = 1e-9

// checkScores is the correctness gate one job must pass.
func checkScores(got, oracle []float64) error {
	if len(got) != len(oracle) {
		return fmt.Errorf("got %d scores, want %d", len(got), len(oracle))
	}
	for v, x := range got {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("vertex %d: non-finite score %v", v, x)
		}
		want := oracle[v]
		if math.Abs(x-want) > relTol*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("vertex %d: score %.17g, oracle %.17g (tolerance %g relative)", v, x, want, relTol)
		}
	}
	return nil
}

// exact are the paper-model counts a run must repeat bit-for-bit:
// across repeats of one run and between traced and untraced calls.
type exact struct {
	rounds   int
	bytes    int64
	messages int64
}

func (o outcome) exact() exact { return exact{o.rounds, o.bytes, o.messages} }

// gate counts attempted and failed operations. A job fails when it
// returns an error or panics, produces a score the oracle rejects, or
// reports exact counts that differ from the first job's.
type gate struct {
	oracle    []float64
	ref       *exact
	attempted int
	failed    int
	errs      []string
	// violations are the failures that break a stated performance bound
	// (ledger residual, tracing overhead, GC comparability) rather than
	// a result.
	violations []string
}

// admit records one job and reports whether its outcome may be used.
func (g *gate) admit(o outcome, err error) bool {
	g.attempted++
	if err == nil {
		err = checkScores(o.scores, g.oracle)
	}
	if err == nil {
		e := o.exact()
		if g.ref == nil {
			g.ref = &e
		} else if e != *g.ref {
			err = fmt.Errorf("exact counts %+v differ from the run's first job %+v", e, *g.ref)
		}
	}
	if err != nil {
		g.failed++
		g.errs = append(g.errs, err.Error())
		return false
	}
	return true
}

// fail counts a check that is not a job (a trace or Lemma 8 check) as
// a failed operation.
func (g *gate) fail(err error) {
	g.attempted++
	g.failed++
	g.errs = append(g.errs, err.Error())
}

// violate counts a broken performance bound as a failed operation.
func (g *gate) violate(err error) {
	g.fail(err)
	g.violations = append(g.violations, err.Error())
}

// result names every failure on standard error and returns the run's
// result without metrics; the run is correct only if nothing failed.
func (g *gate) result() result {
	for _, e := range g.errs {
		fmt.Fprintln(os.Stderr, "benchmark: failed:", e)
	}
	return result{Correct: g.failed == 0 && g.attempted > 0, Attempted: g.attempted, Failed: g.failed,
		Metrics: map[string]metric{}}
}
