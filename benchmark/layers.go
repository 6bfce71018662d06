package main

import (
	"fmt"

	"mrbc/internal/core"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
)

// maxDistance is H for Lemma 8: the largest finite distance from any of
// the workload's sources.
func maxDistance(in *instance) uint32 { return core.MaxFiniteDistance(in.g, in.sources) }

// checkLemma8 runs one detail-level traced job (untimed), checks the
// Lemma 8 round bound at per-synchronization granularity, and returns
// the job's outcome and the number of phase-level events it emitted:
// the detail stream minus its send events. The events are collected
// through the trace's tee, so no ring has to be sized for the detail
// stream; the ring, which wraps, only has to keep concurrent emitters
// on distinct slots, and the default capacity does.
func checkLemma8(in *instance) (o outcome, phaseEvents int, err error) {
	tr := obs.NewTrace(obs.DefaultCapacity, obs.LevelDetail)
	ch := make(chan obs.Event, 1024) // a buffer keeps Emit from waking the collector per event
	done := make(chan []obs.Event)
	go func() {
		var evs []obs.Event
		for e := range ch {
			evs = append(evs, e)
		}
		done <- evs
	}()
	tr.SetTee(ch)
	func() {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		scores, st := mrbcdist.Run(in.g, in.pt, in.sources, mrbcdist.Options{BatchSize: in.w.k, Trace: tr})
		o = outcome{scores: scores, rounds: st.Rounds, bytes: st.Bytes, messages: st.Messages}
	}()
	close(ch)
	events := <-done
	if err != nil {
		return o, 0, err
	}
	if err := obs.CheckRoundBounds(events, int(maxDistance(in))); err != nil {
		return o, 0, fmt.Errorf("detail-level Lemma 8 check: %w", err)
	}
	for _, e := range events {
		if e.Kind != obs.KindSend {
			phaseEvents++
		}
	}
	return o, phaseEvents, nil
}

// layerMetrics folds a traced run into the per-layer metrics. Every
// workload reports every metric; a layer the workload does not run
// reports 0.
func layerMetrics(s *session, untraced, traced []outcome, ledgers []ledger, residuals []float64) map[string]metric {
	first := traced[0]
	tracedS := median(mapf(traced, func(o outcome) float64 { return o.wall }))
	untracedS := median(mapf(untraced, func(o outcome) float64 { return o.wall }))
	// Overhead is the median over pairs of traced/untraced − 1: the two
	// jobs of a pair ran back to back, so machine-speed drift between
	// pairs cancels.
	ratios := make([]float64, len(traced))
	for i := range traced {
		ratios[i] = traced[i].wall/untraced[i].wall - 1
	}
	m := map[string]metric{
		"comm_bytes":            {float64(first.bytes), "B"},
		"comm_messages":         {float64(first.messages), "count"},
		"gen.graph_s":           {s.setupMedian(func(st stages) float64 { return st.genS }), "s"},
		"partition.cut_s":       {s.setupMedian(func(st stages) float64 { return st.cutS }), "s"},
		"clusterrun.launch_s":   {s.setupMedian(func(st stages) float64 { return st.launchS }), "s"},
		"brandes.oracle_s":      {s.oracleS, "s"},
		"runtime.gc_cycles":     {median(mapf(untraced, func(o outcome) float64 { return o.mem.gcCycles })), "count"},
		"trace.gc_cycles":       {median(mapf(traced, func(o outcome) float64 { return o.mem.gcCycles })), "count"},
		"runtime.gc_cpu_frac":   {median(mapf(untraced, func(o outcome) float64 { return o.mem.gcCPU })), "ratio"},
		"runtime.alloc_mb":      {median(mapf(untraced, func(o outcome) float64 { return o.mem.allocMB })), "MB"},
		"ledger.traced_job_s":   {tracedS, "s"},
		"trace.overhead_frac":   {median(ratios), "ratio"},
		"trace.untraced_job_s":  {untracedS, "s"},
		"gluon.tcp_retries":     {float64(first.retries), "count"},
		"gluon.tcp_redials":     {float64(first.redials), "count"},
		"core.inline_rounds":    {float64(first.runStats.InlineRounds), "count"},
		"core.parallel_rounds":  {float64(first.runStats.ParallelRounds), "count"},
		"core.labels_synced":    {float64(first.runStats.LabelsSynced), "count"},
		"core.steal_ratio":      {stealRatio(first.runStats), "ratio"},
		"partition.replication": {replication(s.in), "ratio"},
	}
	lm := func(name, unit string, f func(ledger) float64) {
		v := 0.0
		if len(ledgers) > 0 {
			v = median(mapf(ledgers, f))
		}
		m[name] = metric{v, unit}
	}
	lm("dgalois.compute_s", "s", func(l ledger) float64 { return l.layerS[layerCompute] })
	lm("gluon.pack_s", "s", func(l ledger) float64 { return l.layerS[layerPack] })
	lm("gluon.unpack_s", "s", func(l ledger) float64 { return l.layerS[layerUnpack] })
	lm("gluon.exchange_s", "s", func(l ledger) float64 { return l.layerS[layerExchange] })
	lm("dgalois.barrier_idle_s", "s", func(l ledger) float64 { return l.barrierS })
	lm("dgalois.hidden_s", "s", func(l ledger) float64 { return l.hiddenS })
	lm("dgalois.load_imbalance", "ratio", func(l ledger) float64 { return l.imbalance })
	lm("round.p50_ms", "ms", func(l ledger) float64 { return l.roundP50Ms })
	lm("round.tail_ms", "ms", func(l ledger) float64 { return l.roundTailMs })
	lm("round.tail_pct", "%", func(l ledger) float64 { return l.tailPct })
	lm("round.count", "count", func(l ledger) float64 { return float64(l.roundCount) })
	lm("gluon.msgs_dense", "count", func(l ledger) float64 { return float64(l.totals.Dense) })
	lm("gluon.msgs_sparse", "count", func(l ledger) float64 { return float64(l.totals.Sparse) })
	lm("gluon.msgs_all", "count", func(l ledger) float64 { return float64(l.totals.All) })
	lm("gluon.frame_overhead_frac", "ratio", ledger.frameOverheadFrac)
	lm("merge.crit_max_share", "ratio", func(l ledger) float64 { return l.critShare })
	m["ledger.residual_frac"] = metric{0, "ratio"}
	if len(residuals) > 0 {
		m["ledger.residual_frac"] = metric{median(residuals), "ratio"}
	}
	m["trace.events"] = metric{float64(len(first.events)), "count"}
	return m
}

// stealRatio is steals / (steals + failed steals): the share of steal
// attempts that found work.
func stealRatio(s core.RunStats) float64 {
	if s.Steals+s.FailedSteals == 0 {
		return 0
	}
	return float64(s.Steals) / float64(s.Steals+s.FailedSteals)
}

// replication is proxies per vertex under the workload's partitioning;
// the TCP daemons each recompute the same plan from the graph file.
func replication(in *instance) float64 {
	pt := in.pt
	if pt == nil {
		return 0
	}
	var proxies int
	for _, p := range pt.Parts {
		proxies += p.NumProxies()
	}
	return float64(proxies) / float64(in.g.NumVertices())
}
