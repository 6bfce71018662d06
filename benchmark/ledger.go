package main

import (
	"fmt"
	"math"
	"sort"

	"mrbc/internal/gluon"
	"mrbc/internal/obs"
	"mrbc/internal/obs/merge"
)

// The ledger splits a traced distributed job's wall time into the
// layers on its critical path, from the phase events the cluster
// emits. Phases of one exchange overlap (the exchange slice spans its
// pack and unpack; hosts pack and unpack concurrently), so the ledger
// takes the union of all phase intervals on one timeline and gives each
// instant to the highest-priority layer active in it:
//
//	compute > pack > unpack > exchange (wire wait not hidden)
//
// Barrier idle lies inside the slowest host's compute slice and
// pipeline-hidden wait inside compute, so neither adds to the union;
// both are reported beside it. What the union does not cover is the
// residual: coordinator glue between phases (all-reduce, goroutine
// dispatch, per-batch set-up, score folding) and, over TCP, the
// daemons' graph load, partitioning and result shipping.
const (
	layerCompute = iota
	layerPack
	layerUnpack
	layerExchange
	numLayers
)

// residualBound is the stated bound on ledger.residual_frac: a traced
// run whose layers leave more than this share of its wall time
// unattributed, or claim more time than the wall, fails.
const residualBound = 0.15

// overheadBound bounds trace.overhead_frac: BENCH_obs.json's guard for
// phase-level tracing (CheckObsBench allows 1.35× the untraced run).
const overheadBound = 0.35

type ledger struct {
	layerS      [numLayers]float64
	hiddenS     float64
	barrierS    float64 // mean over hosts
	imbalance   float64
	roundP50Ms  float64
	roundTailMs float64
	tailPct     float64
	roundCount  int
	critShare   float64
	totals      obs.Totals
	tcpMessages int64
	tcpBytes    int64
	retryBytes  int64
}

// unionS is the critical-path time the layers account for.
func (l ledger) unionS() float64 {
	var s float64
	for _, v := range l.layerS {
		s += v
	}
	return s
}

func layerOf(p obs.Phase) int {
	switch p {
	case obs.PhaseCompute:
		return layerCompute
	case obs.PhasePack:
		return layerPack
	case obs.PhaseUnpack:
		return layerUnpack
	case obs.PhaseExchange:
		return layerExchange
	}
	return -1
}

func buildLedger(events []obs.Event, hosts int) ledger {
	var l ledger
	type edge struct {
		t     int64
		layer int
		d     int
	}
	var edges []edge
	type span struct{ lo, hi int64 }
	rounds := make(map[int32]*span)
	hidden := make(map[int64]int64) // exchange seq → hidden ns (max over emitting hosts)
	computeNs := make(map[int64][]int64)
	var barrierNs int64
	for _, e := range events {
		switch e.Kind {
		case obs.KindTransport:
			if e.Backend != "" {
				l.tcpMessages += e.Messages
				l.tcpBytes += e.Bytes
				l.retryBytes += e.RetryBytes
			}
			continue
		case obs.KindPhase:
		default:
			continue
		}
		end := e.StartNs + e.DurNs
		if e.Round > 0 {
			if s := rounds[e.Round]; s == nil {
				rounds[e.Round] = &span{e.StartNs, end}
			} else {
				s.lo = min(s.lo, e.StartNs)
				s.hi = max(s.hi, end)
			}
		}
		switch e.Phase {
		case obs.PhaseBarrier:
			barrierNs += e.DurNs
			continue
		case obs.PhaseExchange:
			hidden[e.Seq] = max(hidden[e.Seq], e.HiddenNs)
		case obs.PhaseCompute:
			computeNs[e.Seq] = append(computeNs[e.Seq], e.DurNs)
		}
		if layer := layerOf(e.Phase); layer >= 0 && e.DurNs > 0 {
			edges = append(edges, edge{e.StartNs, layer, +1}, edge{end, layer, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	var active [numLayers]int
	var layerNs [numLayers]int64
	for i, ed := range edges {
		if i > 0 {
			if dt := ed.t - edges[i-1].t; dt > 0 {
				for layer := 0; layer < numLayers; layer++ {
					if active[layer] > 0 {
						layerNs[layer] += dt
						break
					}
				}
			}
		}
		active[ed.layer] += ed.d
	}
	for i, ns := range layerNs {
		l.layerS[i] = float64(ns) / 1e9
	}
	for _, ns := range hidden {
		l.hiddenS += float64(ns) / 1e9
	}
	l.barrierS = float64(barrierNs) / 1e9 / float64(hosts)

	// Load imbalance as dgalois computes Stats.LoadImbalance — per
	// compute phase, max/mean over the hosts that computed, averaged over
	// phases — recomputed from the trace so that the TCP cluster, whose
	// Stats stay per process, reports it too.
	var imbSum float64
	var imbN int
	for _, ds := range computeNs {
		var mx, sum, n int64
		for _, d := range ds {
			if d > 0 {
				mx, sum, n = max(mx, d), sum+d, n+1
			}
		}
		if n > 0 {
			imbSum += float64(mx) * float64(n) / float64(sum)
			imbN++
		}
	}
	if imbN > 0 {
		l.imbalance = imbSum / float64(imbN)
	}

	walls := make([]float64, 0, len(rounds))
	for _, s := range rounds {
		walls = append(walls, float64(s.hi-s.lo)/1e6)
	}
	l.roundCount = len(walls)
	l.roundP50Ms = median(walls)
	l.tailPct, l.roundTailMs = tail(walls)

	_, blame := merge.CriticalPath(events)
	var bounded int
	for _, b := range blame {
		bounded += b.Rounds
	}
	if len(blame) > 0 && bounded > 0 {
		l.critShare = float64(blame[0].Rounds) / float64(bounded)
	}
	l.totals = obs.Sum(events)
	return l
}

// tail returns the highest of the 90th, 99th and 99.9th percentiles
// that has at least ten samples beyond it, or the median when there are
// too few samples for any.
func tail(xs []float64) (pct, value float64) {
	pct, value = 50, median(xs)
	for _, p := range []float64{90, 99, 99.9} {
		if float64(len(xs))*(1-p/100) >= 10 {
			pct, value = p, percentile(xs, p)
		}
	}
	return pct, value
}

// frameOverheadFrac is the framing the TCP backend adds per logical
// message — one CRC frame around each data record and one around its
// cumulative ack — plus retransmitted bytes, over the model bytes.
// Empty-marker and all-reduce records are not exposed by any public
// counter, so they are left out.
func (l ledger) frameOverheadFrac() float64 {
	if l.tcpBytes == 0 {
		return 0
	}
	const dataHdr, ackBody = 5, 5 // record tag + u32 exchange; tag + u32 seq
	perMsg := int64(gluon.FrameOverhead+dataHdr) + int64(gluon.FrameOverhead+ackBody)
	return float64(l.tcpMessages*perMsg+l.retryBytes) / float64(l.tcpBytes)
}

// checkResidual is the wall-conservation check on a traced run's
// ledgers: no job's layers may add up to more than its wall (beyond
// clock-alignment error), and the median residual may leave no more
// than residualBound of the wall unattributed.
func checkResidual(residuals []float64) error {
	for _, r := range residuals {
		if r < -0.01 {
			return fmt.Errorf("ledger layers exceed the traced wall by %.4f of it", -r)
		}
	}
	if r := median(residuals); r > residualBound {
		return fmt.Errorf("ledger leaves %.4f of the traced wall unattributed, above the %.2f bound", r, residualBound)
	}
	return nil
}

// gcComparable requires the traced and untraced in-process jobs to have
// run a similar number of GC cycles; a trace ring that pre-grows the
// heap suppresses GC and would make tracing look free. (TCP rings live
// in the daemons, whose GC the coordinator cannot see.)
func gcComparable(untraced, traced float64) error {
	if math.Abs(traced-untraced) > max(2, 0.25*untraced) {
		return fmt.Errorf("traced jobs ran %.1f GC cycles, untraced %.1f: overhead is not comparable", traced, untraced)
	}
	return nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile is the linear-interpolation percentile of xs; NaN when xs
// is empty.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
