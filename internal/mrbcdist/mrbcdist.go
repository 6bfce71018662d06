// Package mrbcdist implements Min-Rounds BC on the D-Galois model
// (Section 4 of the paper): one core.Engine per host over its
// partition, BSP rounds that map 1:1 onto CONGEST rounds, and the
// delayed-synchronization optimization — a proxy's (dist, σ) labels are
// reduced and broadcast only in the round r = dsv + ℓrv(dsv, s)
// dictated by the algorithm (the Proxy Synchronization Rule of §4.3),
// and its dependency label only in round Asv = R − τsv of Algorithm 5.
//
// Sources are processed in batches of k (the batch size studied in
// Figure 1); each batch costs at most k + H forward rounds and the
// same again backward (Lemma 8). With Options.PipelineDepth > 1 the
// batches are software-pipelined (pipeline.go): while one batch's
// exchange is on the wire, another batch computes — scores and the
// model trace stay bitwise identical to the serial loop.
package mrbcdist

import (
	"fmt"
	"sort"
	"sync/atomic"

	"mrbc/internal/core"
	"mrbc/internal/dgalois"
	"mrbc/internal/elastic"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/obs"
	"mrbc/internal/partition"
)

// SyncMode selects how the forward phase keeps the per-proxy schedules
// of Algorithm 3 consistent across hosts. Both modes are exact; they
// trade communication volume differently (an ablation DESIGN.md §5
// calls out).
type SyncMode int

const (
	// ArbitrationSync (default): proxies propose their locally-due
	// (vertex, source) label; the master keeps only the
	// lexicographically smallest proposal per vertex and synchronizes
	// it. A losing proxy's schedule shifts by exactly one round,
	// because the broadcast inserts the winning (already-sent) entry
	// below the loser in its ordered list. Costs no extra messages.
	ArbitrationSync SyncMode = iota
	// CandidateSync additionally disseminates candidate distances as
	// relaxations create them, keeping every proxy's ordered list
	// bit-identical to the CONGEST list. Costs one (src, dist) pair
	// per list change but reproduces CONGEST rounds exactly.
	CandidateSync
)

// Options configures a distributed MRBC run.
type Options struct {
	// BatchSize is k, the number of sources per batch. Defaults to 32
	// (the paper's small-graph setting, §5.2).
	BatchSize int
	// Sync selects the schedule-consistency scheme; defaults to
	// ArbitrationSync.
	Sync SyncMode
	// Encoding pins the sync-metadata wire format (default
	// gluon.FormatAuto: density-adaptive selection per message).
	// gluon.FormatDense reproduces the seed's dense-bitvector volume
	// for ablations.
	Encoding gluon.Format
	// Trace receives one event per (round, host, phase), plus — at
	// obs.LevelDetail — one send event per synchronized (vertex, source)
	// pair and one summary event per batch. Nil disables tracing.
	Trace *obs.Trace
	// Metrics is the registry the cluster populates; nil gives the run
	// a private registry reachable through the returned Stats only.
	// A non-nil registry additionally carries the engine's live progress
	// gauges (mrbc_batch, mrbc_round, mrbc_frontier, mrbc_backward) that
	// the telemetry endpoint's /progressz view derives from.
	Metrics *obs.Registry
	// Workers overrides the cluster's exchange worker-pool size (0:
	// automatic). Trace content is independent of this value.
	Workers int
	// Transport overrides the cluster's byte-moving backend (nil: the
	// in-process perfect network; gluon.LossyTransport: in process over a
	// faulty link). A remote backend (gluon.TCPTransport)
	// runs this process as one host of a multi-process SPMD cluster:
	// every process executes the same batch loop, engine state exists
	// only for the local host, termination decisions go through the
	// transport's all-reduce, and the returned scores hold only the
	// local host's master contributions (zero elsewhere) — the
	// coordinator sums the per-process vectors elementwise.
	Transport gluon.Transport
	// EngineWorkers sets each host's intra-engine worker count for the
	// compute phases: above 1 the relax/accumulate loops run on the
	// work-stealing runner of internal/core over a sharded engine. 0 or
	// 1 keeps the serial per-host engines. Scores and model-trace
	// content are independent of this value — the runner's staged apply
	// replays the serial contribution sequence per target — but runs
	// with EngineWorkers > 1 additionally emit one obs.KindWorker event
	// per (batch, host, worker) and feed the mrbc_worker_* registry
	// counters behind /progressz and `bctrace imbalance -per-worker`.
	EngineWorkers int
	// PipelineDepth software-pipelines source batches: up to this many
	// batches run concurrently, each handing the cluster to the next
	// while its own exchange's bytes are on the wire (see pipeline.go).
	// 0 or 1 run the strictly serial batch loop — the default, with
	// traces and stats byte-identical to prior releases. Scores and the
	// model-event stream are independent of the depth: batches retire
	// in index order, replaying the serial floating-point fold exactly.
	// The depth is clamped to the number of batches. A caller-provided
	// in-process Transport must have a window of at least this depth
	// (gluon.NewMemTransportWindow); SPMD processes of one job must
	// agree on the depth.
	PipelineDepth int
	// Checkpoint, when non-nil, persists a boundary snapshot into the
	// sink after every source batch: the scores folded so far plus the
	// cluster's deterministic counter cursor. Batch boundaries are exact
	// recovery units (all other engine state is rebuilt per batch), so a
	// run resumed from any persisted boundary is bitwise identical to the
	// uninterrupted run from that point on. Requires the serial batch
	// loop (PipelineDepth ≤ 1): a pipelined run has no single boundary at
	// which all engine state is quiescent.
	Checkpoint elastic.Sink
	// Resume, when non-nil, starts the run at the snapshot's boundary
	// instead of batch 0: scores are restored bitwise and the cluster's
	// phase-sequence and paper-model counters are seeded from the
	// snapshot's cursor, so trace numbering and Stats continue the
	// pre-restore sequence exactly. The snapshot's cluster size must
	// match the partitioning. Requires PipelineDepth ≤ 1.
	Resume *elastic.Snapshot
	// Epoch is the membership epoch the run executes under (elastic
	// recovery bumps it per attempt); stamped into checkpoints and the
	// dgalois_epoch gauge.
	Epoch int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.BatchSize > maxBatch {
		o.BatchSize = maxBatch
	}
	return o
}

// pipelineDepth clamps the configured depth to [1, number of batches].
func pipelineDepth(opts Options, nSources int) int {
	d := opts.PipelineDepth
	if d < 1 {
		d = 1
	}
	if n := (nSources + opts.BatchSize - 1) / opts.BatchSize; n > 0 && d > n {
		d = n
	}
	return d
}

type hostState struct {
	part   *partition.Part
	engine *core.Engine
	runner *core.Runner // non-nil iff Options.EngineWorkers > 1

	// Per-round staging.
	flags     []core.Flag      // this host's locally-detected flags
	synced    []core.Flag      // (v,s) synchronized this round, to relax/accumulate
	cands     []core.Candidate // distance candidates created this round
	flagSet   map[uint64]bool
	candSet   map[uint64]uint32 // master-side candidate union: (v,s) -> min dist
	proposals []proposal        // master-side buffered mirror proposals

	// Per-round lookup tables, built once per round in a compute phase
	// and read (never written) by the pack calls, which run in
	// parallel across destination pairs.
	flagByV   map[uint32]core.Flag        // vertex -> this host's due flag
	bcastByV  map[uint32]int              // vertex -> source to broadcast
	candByV   map[uint32][]core.Candidate // vertex -> this round's mirror candidates
	mergedByV map[uint32][]core.Candidate // vertex -> merged candidates to broadcast
}

// progressGauges are the engine's live-progress instruments, resolved
// once per run from Options.Metrics (detached no-op gauges when it is
// nil) and updated from the coordinator only — never inside a compute
// phase — so they cost nothing on the hot path.
type progressGauges struct {
	batch    *obs.Gauge // current batch index
	round    *obs.Gauge // current phase-local round (forward or backward)
	frontier *obs.Gauge // due pairs + pending entries across hosts this round
	backward *obs.Gauge // 1 while the batch's backward phase runs
}

func newProgressGauges(reg *obs.Registry) progressGauges {
	return progressGauges{
		batch:    reg.Gauge("mrbc_batch"),
		round:    reg.Gauge("mrbc_round"),
		frontier: reg.Gauge("mrbc_frontier"),
		backward: reg.Gauge("mrbc_backward"),
	}
}

// proposal is a proxy's round-r claim that (v, src) is due, with its
// local label values; masters arbitrate proposals per vertex.
type proposal struct {
	v     uint32 // master-side local ID
	src   int
	dist  uint32
	sigma float64
	own   bool // the master's own proposal: its σ partial is already in the engine
}

// less orders proposals for the same vertex lexicographically by
// (dist, src) — the order of the list Lv.
func (p proposal) less(q proposal) bool {
	if p.dist != q.dist {
		return p.dist < q.dist
	}
	return p.src < q.src
}

// key packs (local vertex, source index) into one map key; source
// indices are bounded by the batch size, capped at 2^20 in Run.
func key(v uint32, s int) uint64 { return uint64(v)<<20 | uint64(s) }

const maxBatch = 1 << 20

// Run computes BC restricted to sources over the partitioned graph
// using batched Min-Rounds BC, returning global scores and cluster
// statistics. When the transport fails an exchange (a lossy link under
// an unrecoverable fault plan, a dead TCP peer) it panics; use
// RunChecked when the network may fail the run.
func Run(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) ([]float64, dgalois.Stats) {
	scores, stats, err := RunChecked(g, pt, sources, opts)
	if err != nil {
		panic(err)
	}
	return scores, stats
}

// RunChecked is Run returning the transport's structured error when an
// exchange exceeds its deadline (e.g. a host of a gluon.LossyTransport
// stalled past it). Every recoverable fault schedule yields err == nil
// and scores bitwise equal to the perfect network's; on error the
// partial scores are meaningless.
func RunChecked(g *graph.Graph, pt *partition.Partitioning, sources []uint32, opts Options) ([]float64, dgalois.Stats, error) {
	opts = opts.withDefaults()
	n := g.NumVertices()
	for _, s := range sources {
		if int(s) >= n {
			panic(fmt.Sprintf("mrbcdist: source %d out of range [0,%d)", s, n))
		}
	}
	depth := pipelineDepth(opts, len(sources))
	if (opts.Checkpoint != nil || opts.Resume != nil) && depth > 1 {
		panic("mrbcdist: checkpoint/resume requires the serial batch loop (PipelineDepth <= 1)")
	}
	topo := gluon.NewTopology(pt)
	cluster := dgalois.NewClusterOpts(pt.NumHosts, dgalois.ClusterOptions{
		Trace:       opts.Trace,
		Metrics:     opts.Metrics,
		Workers:     opts.Workers,
		Transport:   opts.Transport,
		MaxInflight: depth,
		Epoch:       opts.Epoch,
	})
	defer cluster.Close()
	cluster.SetEncoding(opts.Encoding)
	scores := make([]float64, n)
	prog := newProgressGauges(opts.Metrics)
	startBatch := 0
	if rs := opts.Resume; rs != nil {
		if rs.Hosts != pt.NumHosts {
			panic(fmt.Sprintf("mrbcdist: snapshot belongs to a %d-host cluster, partitioning has %d", rs.Hosts, pt.NumHosts))
		}
		if len(rs.Scores) != n {
			panic(fmt.Sprintf("mrbcdist: snapshot carries %d scores, graph has %d vertices", len(rs.Scores), n))
		}
		copy(scores, rs.Scores)
		startBatch = rs.NextBatch
		cluster.Restore(dgalois.Cursor{Seq: rs.Seq, Rounds: rs.Rounds,
			Bytes: rs.Bytes, Messages: rs.Messages, Encoding: rs.Encoding})
		if opts.Trace.Enabled() {
			opts.Trace.Emit(obs.Event{Kind: obs.KindElastic, Phase: obs.PhaseRestore,
				Batch: int32(startBatch), Host: int32(cluster.LocalHost())})
		}
	}
	err := dgalois.Capture(func() {
		if depth > 1 {
			runPipelined(cluster, topo, pt, sources, scores, opts, depth, prog)
			return
		}
		for start, bi := startBatch*opts.BatchSize, startBatch; start < len(sources); start, bi = start+opts.BatchSize, bi+1 {
			end := start + opts.BatchSize
			if end > len(sources) {
				end = len(sources)
			}
			runBatch(cluster, topo, pt, sources[start:end], scores, opts, bi, prog)
			saveCheckpoint(cluster, scores, bi+1, opts)
		}
	})
	return scores, cluster.Stats(), err
}

// saveCheckpoint persists the batch-boundary snapshot into
// Options.Checkpoint (no-op when checkpointing is off). It runs inside
// the run's Capture, so a sink failure aborts the run through the same
// structured-fault path as a transport failure — a checkpoint that
// silently failed would turn a later restore into data loss.
func saveCheckpoint(cluster *dgalois.Cluster, scores []float64, next int, opts Options) {
	if opts.Checkpoint == nil {
		return
	}
	cur := cluster.Cursor()
	data := elastic.Encode(&elastic.Snapshot{
		Host:      cluster.LocalHost(),
		Hosts:     cluster.NumHosts(),
		Epoch:     opts.Epoch,
		NextBatch: next,
		Seq:       cur.Seq,
		Rounds:    cur.Rounds,
		Bytes:     cur.Bytes,
		Messages:  cur.Messages,
		Encoding:  cur.Encoding,
		Scores:    scores,
	})
	if err := opts.Checkpoint.Put(next, data); err != nil {
		dgalois.Abort(&dgalois.FaultError{Host: cluster.LocalHost(), Exchange: -1,
			Reason: "checkpoint: " + err.Error()})
	}
	if opts.Trace.Enabled() {
		opts.Trace.Emit(obs.Event{Kind: obs.KindElastic, Phase: obs.PhaseCheckpoint,
			Batch: int32(next), Host: int32(cluster.LocalHost())})
	}
}

// makeStates builds one batch's per-host engine state in a single BSP
// compute phase (shared by the serial and pipelined batch runners).
func makeStates(cluster *dgalois.Cluster, pt *partition.Partitioning, batch []uint32, opts Options) []*hostState {
	k := len(batch)
	states := make([]*hostState, pt.NumHosts)
	cluster.Compute(func(h int) {
		p := pt.Parts[h]
		eng := core.NewEngine(p.Local, k)
		var run *core.Runner
		if opts.EngineWorkers > 1 {
			// The runner needs a sharded engine; contiguous sharding keeps
			// flag emission in the serial ascending order, so the sync
			// protocol above sees no difference.
			eng = core.NewEngineOpts(p.Local, k, core.EngineOpts{
				Shards: core.ParallelShards(p.Local.NumVertices()),
			})
			run = core.NewRunner(eng, opts.EngineWorkers)
		}
		st := &hostState{
			part:      p,
			engine:    eng,
			runner:    run,
			flagSet:   make(map[uint64]bool),
			candSet:   make(map[uint64]uint32),
			flagByV:   make(map[uint32]core.Flag),
			bcastByV:  make(map[uint32]int),
			candByV:   make(map[uint32][]core.Candidate),
			mergedByV: make(map[uint32][]core.Candidate),
		}
		for i, s := range batch {
			if l, ok := p.LocalID(s); ok {
				st.engine.InitSource(l, i, p.IsMaster[l])
			}
		}
		states[h] = st
	})
	return states
}

// closeRunners releases the per-host worker pools of a batch's states.
func closeRunners(states []*hostState) {
	for _, st := range states {
		if st != nil && st.runner != nil {
			st.runner.Close()
		}
	}
}

// forwardFlagsFn is compute phase A of a forward round: collect the
// round's due flags, rebuild the pack lookup tables, and fold this
// host's activity (due pairs + pending entries) into *activity.
func forwardFlagsFn(states []*hostState, r int, activity *int64) func(h int) {
	return func(h int) {
		st := states[h]
		st.flags = st.engine.ForwardFlags(r, st.flags[:0])
		st.synced = st.synced[:0]
		clear(st.flagSet)
		clear(st.flagByV)
		clear(st.bcastByV)
		for _, f := range st.flags {
			st.flagByV[f.V] = f
		}
		p := int64(len(st.flags))
		if st.engine.PendingUnsent() {
			p++
		}
		atomic.AddInt64(activity, p)
	}
}

// relaxFn is compute phase B of a forward round: relax the synchronized
// entries locally — through the host's work-stealing runner when
// EngineWorkers fanned one out, serially otherwise. Only CandidateSync
// disseminates the distance candidates the relaxations create, so only
// it pays to collect them; ArbitrationSync uses the allocation-free
// local path.
func relaxFn(states []*hostState, sync SyncMode) func(h int) {
	return func(h int) {
		st := states[h]
		st.cands = st.cands[:0]
		for k := range st.candSet {
			delete(st.candSet, k)
		}
		switch {
		case st.runner != nil && sync == CandidateSync:
			st.cands = st.runner.RelaxAllCandidates(st.synced, st.cands)
		case st.runner != nil:
			st.runner.RelaxAll(st.synced)
		case sync == CandidateSync:
			for _, f := range st.synced {
				st.cands = st.engine.RelaxOut(f.V, f.Src, st.cands)
			}
		default:
			for _, f := range st.synced {
				st.engine.RelaxOutLocal(f.V, f.Src)
			}
		}
	}
}

// backwardFlagsFn collects one backward round's due flags and rebuilds
// the pack lookup tables.
func backwardFlagsFn(states []*hostState, r int) func(h int) {
	return func(h int) {
		st := states[h]
		st.flags = st.engine.BackwardFlags(r, st.flags[:0])
		st.synced = st.synced[:0]
		clear(st.flagSet)
		clear(st.flagByV)
		clear(st.bcastByV)
		for _, f := range st.flags {
			st.flagByV[f.V] = f
		}
	}
}

// accumulateFn folds one backward round's synchronized dependencies
// into the predecessors' δ partials.
func accumulateFn(states []*hostState) func(h int) {
	return func(h int) {
		st := states[h]
		if st.runner != nil {
			st.runner.AccumulateAll(st.synced)
			return
		}
		for _, f := range st.synced {
			st.engine.AccumulateIn(f.V, f.Src)
		}
	}
}

// localBackwardRounds returns the deepest local host's backward round
// count (the all-reduce folds it across processes).
func localBackwardRounds(states []*hostState) int {
	maxBack := 0
	for _, st := range states {
		if st == nil {
			continue
		}
		if b := st.engine.BackwardRounds(); b > maxBack {
			maxBack = b
		}
	}
	return maxBack
}

// emitWorkerStats publishes the per-worker scheduler counters of one
// finished batch: one worker event per (batch, host, worker) for
// `bctrace imbalance -per-worker`, and cumulative registry counters
// (flat index host·EngineWorkers+worker) for the live /progressz
// intra-host skew view. Runner pools are per-batch, so WorkerStats here
// is exactly this batch's tally.
func emitWorkerStats(states []*hostState, opts Options, bi int) {
	if opts.EngineWorkers <= 1 {
		return
	}
	tr := opts.Trace
	var tasksVec, stealsVec *obs.CounterVec
	if opts.Metrics != nil {
		nw := len(states) * opts.EngineWorkers
		tasksVec = opts.Metrics.CounterVec("mrbc_worker_tasks_total", "worker", nw)
		stealsVec = opts.Metrics.CounterVec("mrbc_worker_steals_total", "worker", nw)
	}
	for h, st := range states {
		if st == nil || st.runner == nil {
			continue
		}
		for w, ws := range st.runner.WorkerStats() {
			if tr.Enabled() {
				tr.Emit(obs.Event{Kind: obs.KindWorker, Batch: int32(bi),
					Host: int32(h), Worker: int32(w),
					Tasks: ws.Tasks, Steals: ws.Steals,
					FailedSteals: ws.FailedSteals, Flushes: ws.Flushes})
			}
			if tasksVec != nil {
				tasksVec.At(h*opts.EngineWorkers + w).Add(ws.Tasks)
				stealsVec.At(h*opts.EngineWorkers + w).Add(ws.Steals)
			}
		}
	}
}

// foldScores folds one finished batch's master dependencies into the
// global scores (only the local hosts' masters in SPMD mode: the
// per-process vectors are disjoint and sum to the full scores). The
// iteration order — hosts ascending, then local vertices, then batch
// index — is the floating-point fold order both batch runners replay.
func foldScores(states []*hostState, batch []uint32, scores []float64) {
	for _, st := range states {
		if st == nil {
			continue
		}
		for l, gid := range st.part.GlobalID {
			if !st.part.IsMaster[l] {
				continue
			}
			for i, s := range batch {
				d := st.engine.Get(uint32(l), i)
				if d.Dist != graph.InfDist && gid != s {
					scores[gid] += d.Delta
				}
			}
		}
	}
}

func runBatch(cluster *dgalois.Cluster, topo *gluon.Topology, pt *partition.Partitioning, batch []uint32, scores []float64, opts Options, bi int, prog progressGauges) {
	k := len(batch)
	tr := opts.Trace
	prog.batch.Set(int64(bi))
	prog.round.Set(0)
	prog.backward.Set(0)
	states := makeStates(cluster, pt, batch, opts)
	// Worker pools must not leak even when a transport failure panics the
	// run out of the batch loop.
	defer closeRunners(states)

	// ---- Forward phase (Algorithm 3 as BSP rounds). ----
	R := 0
	for r := 1; ; r++ {
		cluster.BeginRound()
		var activity int64
		cluster.Compute(forwardFlagsFn(states, r, &activity))
		// Global quiescence: in SPMD mode the local sum is only this
		// host's share, so fold across processes (identity in-process).
		activity = cluster.AllReduce(activity, gluon.ReduceSum)
		prog.round.Set(int64(r))
		prog.frontier.Set(activity)
		if activity == 0 {
			break
		}
		R = r
		syncForward(cluster, topo, states, r, tr, bi)
		cluster.Compute(relaxFn(states, opts.Sync))
		// In CandidateSync mode, additionally disseminate candidate
		// distances so every proxy's ordered list stays identical to
		// the CONGEST list (ArbitrationSync instead resolves schedule
		// ties at the master).
		if opts.Sync == CandidateSync {
			syncCandidates(cluster, topo, states)
		}
	}

	// ---- Backward phase (Algorithm 5 as BSP rounds). ----
	cluster.Compute(func(h int) { states[h].engine.StartBackward(R) })
	// Every process must run the same number of backward rounds — the
	// deepest host's (identity in-process).
	maxBack := int(cluster.AllReduce(int64(localBackwardRounds(states)), gluon.ReduceMax))
	prog.backward.Set(1)
	for r := 1; r <= maxBack; r++ {
		cluster.BeginRound()
		prog.round.Set(int64(r))
		cluster.Compute(backwardFlagsFn(states, r))
		syncBackward(cluster, topo, states, r, tr, bi)
		cluster.Compute(accumulateFn(states))
	}

	// One summary event per batch: K sources, R forward rounds, maxBack
	// backward rounds — the inputs of the Lemma 8 bound
	// fwd + back + 1 ≤ 2(k+H) + 1 the trace harness checks.
	if tr.Enabled() {
		tr.Emit(obs.Event{Kind: obs.KindBatch, Batch: int32(bi), Host: -1,
			K: int32(k), FwdRounds: int32(R), BackRounds: int32(maxBack)})
	}
	emitWorkerStats(states, opts, bi)
	foldScores(states, batch, scores)
}

// syncForward implements the round-r label synchronization: due
// mirrors propose (src, dist, σ-partial) to masters; masters arbitrate
// one winner per vertex (the lexicographically smallest proposal — in
// CandidateSync mode at most one proposal per vertex exists, so
// arbitration is a no-op), merge the winner's σ partials, apply the
// finalized value, and broadcast (src, dist, σ) to every mirror.
func syncForward(cluster *dgalois.Cluster, topo *gluon.Topology, states []*hostState, r int, tr *obs.Trace, bi int) {
	pack, unpack := fwdReduceExchange(states, topo)
	cluster.Exchange(pack, unpack)
	cluster.Compute(fwdArbitrateFn(states, r, tr, bi))
	pack, unpack = fwdBroadcastExchange(states, topo, r)
	cluster.Exchange(pack, unpack)
}

// fwdReduceExchange builds the forward reduce step: due mirror proxies
// -> master (proposals are buffered; nothing is merged until
// arbitration picks the winners).
func fwdReduceExchange(states []*hostState, topo *gluon.Topology) (func(from, to int, w *gluon.Writer), func(to, from int, data []byte, dec *gluon.Decoder)) {
	pack := func(from, to int, w *gluon.Writer) {
		st := states[from]
		list := topo.MirrorList(from, to)
		if len(list) == 0 || len(st.flags) == 0 {
			return
		}
		// At most one due source per vertex per round on one host,
		// so a vertex-level bitvector suffices.
		marked := w.Scratch(len(list))
		for pos, lid := range list {
			if _, ok := st.flagByV[lid]; ok {
				marked.Set(pos)
			}
		}
		gluon.EncodeUpdates(w, len(list), marked, func(pos int, w *gluon.Writer) {
			f := st.flagByV[list[pos]]
			d := st.engine.Get(f.V, f.Src)
			w.U32(uint32(f.Src))
			w.U32(d.Dist)
			w.F64(d.Sigma)
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MasterList(from, to)
		dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
			st.proposals = append(st.proposals, proposal{
				v:     list[pos],
				src:   int(rd.U32()),
				dist:  rd.U32(),
				sigma: rd.F64(),
			})
		})
	}
	return pack, unpack
}

// fwdArbitrateFn builds the arbitration compute: per vertex, the
// lexicographically smallest proposal wins; losers are dropped (their
// hosts keep the entry unsent, and the winner's broadcast pushes their
// schedule to a later round). The winner's σ partials are merged and
// the label finalized.
func fwdArbitrateFn(states []*hostState, r int, tr *obs.Trace, bi int) func(h int) {
	return func(h int) {
		st := states[h]
		for _, f := range st.flags {
			if st.part.IsMaster[f.V] {
				d := st.engine.Get(f.V, f.Src)
				st.proposals = append(st.proposals, proposal{v: f.V, src: f.Src, dist: d.Dist, own: true})
			}
		}
		winners := make(map[uint32]proposal, len(st.proposals))
		for _, p := range st.proposals {
			if cur, ok := winners[p.v]; !ok || p.less(cur) {
				winners[p.v] = p
			}
		}
		// Winners are processed in ascending vertex order, not map order:
		// st.synced's order is the relax order, and with it the order σ
		// partials accumulate downstream — it must not vary run to run.
		order := make([]uint32, 0, len(winners))
		for v := range winners {
			order = append(order, v)
		}
		sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
		for _, v := range order {
			w := winners[v]
			for _, p := range st.proposals {
				if p.v != w.v || p.src != w.src || p.own {
					continue
				}
				if p.dist != w.dist {
					panic(fmt.Sprintf("mrbcdist: proposals for (%d,%d) disagree on distance", p.v, p.src))
				}
				st.engine.MergePartial(p.v, p.src, p.dist, p.sigma)
			}
			d := st.engine.Get(w.v, w.src)
			st.engine.ApplySync(w.v, w.src, d.Dist, d.Sigma, r)
			st.synced = append(st.synced, core.Flag{V: w.v, Src: w.src})
			st.flagSet[key(w.v, w.src)] = true
			st.bcastByV[w.v] = w.src
			// Every winner is master-owned and ApplySync rejects double
			// synchronization, so this fires exactly once per
			// (batch, vertex, source) — the forward half of the
			// reversal-symmetry invariant.
			if tr.Detail() {
				tr.Emit(obs.Event{Kind: obs.KindSend, Dir: obs.DirForward,
					Batch: int32(bi), Round: int32(r), Host: int32(h),
					V: int32(st.part.GlobalID[w.v]), Src: int32(w.src)})
			}
		}
		st.proposals = st.proposals[:0]
	}
}

// fwdBroadcastExchange builds the forward broadcast step: masters ->
// all mirrors.
func fwdBroadcastExchange(states []*hostState, topo *gluon.Topology, r int) (func(from, to int, w *gluon.Writer), func(to, from int, data []byte, dec *gluon.Decoder)) {
	pack := func(from, to int, w *gluon.Writer) {
		st := states[from]
		list := topo.MasterList(to, from)
		if len(list) == 0 || len(st.flagSet) == 0 {
			return
		}
		marked := w.Scratch(len(list))
		for pos, lid := range list {
			if _, ok := st.bcastByV[lid]; ok {
				marked.Set(pos)
			}
		}
		gluon.EncodeUpdates(w, len(list), marked, func(pos int, w *gluon.Writer) {
			lid := list[pos]
			src := st.bcastByV[lid]
			d := st.engine.Get(lid, src)
			w.U32(uint32(src))
			w.U32(d.Dist)
			w.F64(d.Sigma)
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MirrorList(to, from)
		dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
			lid := list[pos]
			src := int(rd.U32())
			dist := rd.U32()
			sigma := rd.F64()
			st.engine.ApplySync(lid, src, dist, sigma, r)
			st.synced = append(st.synced, core.Flag{V: lid, Src: src})
		})
	}
	return pack, unpack
}

// syncCandidates disseminates this round's distance candidates:
// mirrors push (src, dist) lists to masters, masters merge (min) and
// broadcast the merged candidates to every mirror. Only distances
// travel — σ partials stay local until the pair's scheduled round —
// so this preserves the delayed-synchronization optimization while
// keeping every proxy's ordered list identical.
func syncCandidates(cluster *dgalois.Cluster, topo *gluon.Topology, states []*hostState) {
	cluster.Compute(candGroupFn(states))
	pack, unpack := candReduceExchange(states, topo)
	cluster.Exchange(pack, unpack)
	cluster.Compute(candMergeFn(states))
	pack, unpack = candBroadcastExchange(states, topo)
	cluster.Exchange(pack, unpack)
}

// encodeCandidates packs per-vertex candidate lists for the marked
// vertices of one shared list.
func encodeCandidates(w *gluon.Writer, list []uint32, byV map[uint32][]core.Candidate, dist func(c core.Candidate) uint32) {
	if len(list) == 0 || len(byV) == 0 {
		return
	}
	marked := w.Scratch(len(list))
	for pos, lid := range list {
		if _, ok := byV[lid]; ok {
			marked.Set(pos)
		}
	}
	gluon.EncodeUpdates(w, len(list), marked, func(pos int, w *gluon.Writer) {
		cs := byV[list[pos]]
		w.U32(uint32(len(cs)))
		for _, c := range cs {
			w.U32(uint32(c.Src))
			w.U32(dist(c))
		}
	})
}

// candGroupFn groups this round's candidates by vertex once per host,
// in a compute phase: the pack calls of the reduce below run in
// parallel per destination pair and only read the map. Parallel
// intra-round relaxations can propose the same (v, src) pair more than
// once (and how often depends on vertex processing order); the master
// min-folds anyway, so keep only the minimum distance per pair — the
// wire volume stays deterministic across runs.
func candGroupFn(states []*hostState) func(h int) {
	return func(h int) {
		st := states[h]
		clear(st.candByV)
		for _, c := range st.cands {
			cs := st.candByV[c.V]
			dup := false
			for i := range cs {
				if cs[i].Src == c.Src {
					if c.Dist < cs[i].Dist {
						cs[i].Dist = c.Dist
					}
					dup = true
					break
				}
			}
			if !dup {
				st.candByV[c.V] = append(cs, c)
			}
		}
	}
}

// candReduceExchange builds the candidate reduce step: mirror
// candidates -> masters.
func candReduceExchange(states []*hostState, topo *gluon.Topology) (func(from, to int, w *gluon.Writer), func(to, from int, data []byte, dec *gluon.Decoder)) {
	pack := func(from, to int, w *gluon.Writer) {
		st := states[from]
		if len(st.candByV) == 0 {
			return
		}
		encodeCandidates(w, topo.MirrorList(from, to), st.candByV, func(c core.Candidate) uint32 { return c.Dist })
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MasterList(from, to)
		dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
			lid := list[pos]
			cnt := int(rd.U32())
			for i := 0; i < cnt; i++ {
				src := int(rd.U32())
				d := rd.U32()
				st.engine.MergeCandidate(lid, src, d)
				kk := key(lid, src)
				if cur, ok := st.candSet[kk]; !ok || d < cur {
					st.candSet[kk] = d
				}
			}
		})
	}
	return pack, unpack
}

// candMergeFn folds the masters' own local candidates into the union,
// then groups the merged union by vertex for the broadcast packs.
func candMergeFn(states []*hostState) func(h int) {
	return func(h int) {
		st := states[h]
		for _, c := range st.cands {
			if st.part.IsMaster[c.V] {
				kk := key(c.V, c.Src)
				if cur, ok := st.candSet[kk]; !ok || c.Dist < cur {
					st.candSet[kk] = c.Dist
				}
			}
		}
		clear(st.mergedByV)
		// Sorted (v, src) order keeps each vertex's merged candidate list —
		// and with it the broadcast's wire bytes — identical across runs.
		keys := make([]uint64, 0, len(st.candSet))
		for kk := range st.candSet {
			keys = append(keys, kk)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, kk := range keys {
			v := uint32(kk >> 20)
			s := int(kk & (1<<20 - 1))
			st.mergedByV[v] = append(st.mergedByV[v], core.Candidate{V: v, Src: s})
		}
	}
}

// candBroadcastExchange builds the candidate broadcast step: merged
// candidates -> all mirrors, with the master's post-merge (minimum)
// distance.
func candBroadcastExchange(states []*hostState, topo *gluon.Topology) (func(from, to int, w *gluon.Writer), func(to, from int, data []byte, dec *gluon.Decoder)) {
	pack := func(from, to int, w *gluon.Writer) {
		st := states[from]
		if len(st.mergedByV) == 0 {
			return
		}
		encodeCandidates(w, topo.MasterList(to, from), st.mergedByV, func(c core.Candidate) uint32 {
			return st.engine.Get(c.V, c.Src).Dist
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MirrorList(to, from)
		dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
			lid := list[pos]
			cnt := int(rd.U32())
			for i := 0; i < cnt; i++ {
				src := int(rd.U32())
				st.engine.MergeCandidate(lid, src, rd.U32())
			}
		})
	}
	return pack, unpack
}

// syncBackward synchronizes the dependency labels of backward-flagged
// pairs: mirrors push δ partials (then reset them), masters sum and
// broadcast the final dependency.
func syncBackward(cluster *dgalois.Cluster, topo *gluon.Topology, states []*hostState, r int, tr *obs.Trace, bi int) {
	pack, unpack := backReduceExchange(states, topo)
	cluster.Exchange(pack, unpack)
	cluster.Compute(backUnionFn(states, r, tr, bi))
	pack, unpack = backBroadcastExchange(states, topo)
	cluster.Exchange(pack, unpack)
}

// backReduceExchange builds the backward reduce step: due mirrors hand
// their δ partials to the masters (and reset them locally).
func backReduceExchange(states []*hostState, topo *gluon.Topology) (func(from, to int, w *gluon.Writer), func(to, from int, data []byte, dec *gluon.Decoder)) {
	pack := func(from, to int, w *gluon.Writer) {
		st := states[from]
		list := topo.MirrorList(from, to)
		if len(list) == 0 || len(st.flags) == 0 {
			return
		}
		marked := w.Scratch(len(list))
		for pos, lid := range list {
			if _, ok := st.flagByV[lid]; ok {
				marked.Set(pos)
			}
		}
		gluon.EncodeUpdates(w, len(list), marked, func(pos int, w *gluon.Writer) {
			f := st.flagByV[list[pos]]
			w.U32(uint32(f.Src))
			w.F64(st.engine.DeltaPartial(f.V, f.Src))
			// Hand the partial to the master; the broadcast below
			// restores the final value. Each mirror vertex appears
			// in exactly one (from, to) shared list, so this write
			// is safe under the pair-parallel pack loop.
			st.engine.ApplyDeltaSync(f.V, f.Src, 0)
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MasterList(from, to)
		dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
			lid := list[pos]
			src := int(rd.U32())
			st.engine.AddDeltaPartial(lid, src, rd.F64())
			st.flagSet[key(lid, src)] = true
		})
	}
	return pack, unpack
}

// backUnionFn builds the master-side union compute of one backward
// round: the host's own flags plus the mirror partials just received.
func backUnionFn(states []*hostState, r int, tr *obs.Trace, bi int) func(h int) {
	return func(h int) {
		st := states[h]
		for _, f := range st.flags {
			if st.part.IsMaster[f.V] {
				st.flagSet[key(f.V, f.Src)] = true
			}
		}
		// Sorted (v, src) order: st.synced's order is the δ-accumulation
		// order at the predecessors, which must not vary run to run.
		keys := make([]uint64, 0, len(st.flagSet))
		for kk := range st.flagSet {
			keys = append(keys, kk)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, kk := range keys {
			v := uint32(kk >> 20)
			s := int(kk & (1<<20 - 1))
			st.synced = append(st.synced, core.Flag{V: v, Src: s})
			st.bcastByV[v] = s
			// flagSet is the master-side union of this round's due pairs
			// (its own flags plus mirror partials), so each (v, src)
			// appears at its master in exactly one backward round — the
			// round Algorithm 5 schedules as A = R − τ + 1.
			if tr.Detail() {
				tr.Emit(obs.Event{Kind: obs.KindSend, Dir: obs.DirBackward,
					Batch: int32(bi), Round: int32(r), Host: int32(h),
					V: int32(st.part.GlobalID[v]), Src: int32(s)})
			}
		}
	}
}

// backBroadcastExchange builds the backward broadcast step: masters
// push the summed dependency back to every mirror.
func backBroadcastExchange(states []*hostState, topo *gluon.Topology) (func(from, to int, w *gluon.Writer), func(to, from int, data []byte, dec *gluon.Decoder)) {
	pack := func(from, to int, w *gluon.Writer) {
		st := states[from]
		list := topo.MasterList(to, from)
		if len(list) == 0 || len(st.flagSet) == 0 {
			return
		}
		marked := w.Scratch(len(list))
		for pos, lid := range list {
			if _, ok := st.bcastByV[lid]; ok {
				marked.Set(pos)
			}
		}
		gluon.EncodeUpdates(w, len(list), marked, func(pos int, w *gluon.Writer) {
			lid := list[pos]
			src := st.bcastByV[lid]
			w.U32(uint32(src))
			w.F64(st.engine.DeltaPartial(lid, src))
		})
	}
	unpack := func(to, from int, data []byte, dec *gluon.Decoder) {
		st := states[to]
		list := topo.MirrorList(to, from)
		dec.DecodeUpdates(len(list), data, func(pos int, rd *gluon.Reader) {
			lid := list[pos]
			src := int(rd.U32())
			st.engine.ApplyDeltaSync(lid, src, rd.F64())
			st.synced = append(st.synced, core.Flag{V: lid, Src: src})
		})
	}
	return pack, unpack
}
