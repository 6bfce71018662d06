package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"mrbc"
	"mrbc/internal/brandes"
	"mrbc/internal/clusterrun"
	"mrbc/internal/core"
	"mrbc/internal/gen"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/obs"
	"mrbc/internal/obs/merge"
	"mrbc/internal/partition"
)

// kind is the execution shape a workload drives.
type kind int

const (
	kindInProc kind = iota // mrbcdist.Run on in-process simulated hosts
	kindTCP                // clusterrun: real bcd processes over TCP
	kindShm                // mrbc.Betweenness on shared memory
)

// workload is one named benchmark input: a generator drawn from the
// workload seed, and the engine configuration the program receives.
// README.md records why each one exists.
type workload struct {
	name    string
	kind    kind
	graph   func(seed int64) *graph.Graph
	hosts   int    // simulated hosts or daemon processes (≤ nproc)
	cut     string // partition policy, as clusterrun.BuildPartitioning names it
	k       int    // batch size
	sources int    // contiguous chunk brandes.FirstKSources(g, 0, sources)
}

// workloads returns the benchmark's workloads at full size, or shrunk
// for the benchmark's own smoke tests.
func workloads(small bool) []*workload {
	ws := []*workload{
		{name: "rmat-inproc", kind: kindInProc, hosts: 2, cut: "cartesian", k: 32, sources: 64,
			graph: func(s int64) *graph.Graph { return gen.RMAT(13, 8, s) }},
		{name: "road-inproc", kind: kindInProc, hosts: 2, cut: "cartesian", k: 8, sources: 64,
			graph: func(s int64) *graph.Graph { return gen.RoadGrid(100, 100, s) }},
		{name: "webcrawl-tcp", kind: kindTCP, hosts: 2, cut: "edgecut", k: 32, sources: 64,
			graph: func(s int64) *graph.Graph { return gen.WebCrawl(12, 12, 8, 30, s) }},
		{name: "rmat-shm", kind: kindShm, hosts: 1, k: 32, sources: 64,
			graph: func(s int64) *graph.Graph { return gen.RMAT(16, 8, s) }},
	}
	if small {
		ws[0].graph = func(s int64) *graph.Graph { return gen.RMAT(10, 8, s) }
		ws[1].graph = func(s int64) *graph.Graph { return gen.RoadGrid(30, 30, s) }
		ws[2].graph = func(s int64) *graph.Graph { return gen.WebCrawl(9, 8, 4, 10, s) }
		ws[3].graph = func(s int64) *graph.Graph { return gen.RMAT(10, 8, s) }
		for _, w := range ws {
			w.sources = 2 * w.k
		}
	}
	return ws
}

func findWorkload(name string, small bool) (*workload, error) {
	var names []string
	for _, w := range workloads(small) {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// instance is a set-up workload: the generated input plus whatever the
// engine needs before its timed call (a partitioning, or a launched
// cluster reading a graph file).
type instance struct {
	w       *workload
	g       *graph.Graph
	sources []uint32
	pt      *partition.Partitioning
	cluster *clusterrun.Cluster
	path    string
	closed  sync.Once

	stages
}

// stages are the set-up stage times of one instance, in seconds.
type stages struct {
	genS, cutS, writeS, launchS float64
}

// total is the workload's end-to-end set-up time.
func (s stages) total() float64 { return s.genS + s.cutS + s.writeS + s.launchS }

// env carries what set-up needs from outside the workload.
type env struct {
	bcd     string // bcd binary for kindTCP
	workdir string // where graph files go
}

// setup builds one instance. Every stage is a call into a public entry
// point, timed from outside: gen.*, partition.*, graph.Save and
// clusterrun.Launch.
func setup(w *workload, seed int64, e env) (*instance, error) {
	if n := runtime.NumCPU(); w.hosts > n {
		return nil, fmt.Errorf("%s runs %d hosts but the machine has %d cores; hosts would time-share them", w.name, w.hosts, n)
	}
	in := &instance{w: w}
	t := time.Now()
	in.g = w.graph(seed)
	in.genS = since(t)
	in.sources = brandes.FirstKSources(in.g, 0, w.sources)
	if w.kind == kindShm {
		return in, nil
	}
	// The TCP daemons partition the graph file themselves at job start;
	// the coordinator-side cut here is the same deterministic plan,
	// timed as part of set-up and used for the replication metric.
	t = time.Now()
	pt, err := clusterrun.BuildPartitioning(in.g, w.cut, w.hosts)
	if err != nil {
		return nil, err
	}
	in.pt = pt
	in.cutS = since(t)
	if w.kind == kindTCP {
		f, err := os.CreateTemp(e.workdir, w.name+"-*.gr")
		if err != nil {
			return nil, fmt.Errorf("graph file: %w", err)
		}
		in.path = f.Name()
		f.Close()
		t = time.Now()
		if err := in.g.Save(in.path); err != nil {
			in.close()
			return nil, fmt.Errorf("write graph: %w", err)
		}
		in.writeS = since(t)
		t = time.Now()
		// GOMAXPROCS=1 per daemon keeps the daemons' runtimes from
		// time-sharing the machine's cores with each other.
		if err := os.Setenv("GOMAXPROCS", daemonGOMAXPROCS); err != nil {
			in.close()
			return nil, err
		}
		c, err := clusterrun.Launch(clusterrun.ClusterOptions{BcdPath: e.bcd, Hosts: w.hosts})
		if err != nil {
			in.close()
			return nil, err
		}
		in.cluster = c
		in.launchS = since(t)
	}
	return in, nil
}

const daemonGOMAXPROCS = "1"

// close stops the instance's daemons, waiting for them to exit, and
// removes its graph file.
func (in *instance) close() {
	in.closed.Do(func() {
		if in.cluster != nil {
			in.cluster.Close()
		}
		if in.path != "" {
			os.Remove(in.path)
		}
	})
}

// daemonRingCap is the trace ring every bcd daemon allocates for a
// ShipTrace job. A host that ships this many events may have wrapped
// its ring, so the benchmark treats that as dropped events.
const daemonRingCap = 1 << 16

// outcome is one job's result as the caller sees it.
type outcome struct {
	wall     float64 // seconds, the timed call alone
	scores   []float64
	rounds   int
	bytes    int64
	messages int64

	events    []obs.Event // traced distributed runs (TCP: merged, clock-aligned)
	runStats  core.RunStats
	retries   int64
	redials   int64
	peakRSSMB float64
	mem       memDelta
}

// jobOpts selects how one job runs.
type jobOpts struct {
	traced  bool
	ringCap int // in-process phase-level ring capacity when traced
}

// runJob performs one timed call into the workload's entry point. A
// panic is returned as an error, so it counts as a failed operation.
func runJob(in *instance, o jobOpts) (out outcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	rss := startRSS(in.cluster)
	m0 := readMem()
	w := in.w
	switch w.kind {
	case kindInProc:
		var tr *obs.Trace
		if o.traced {
			tr = obs.NewTrace(o.ringCap, obs.LevelPhase)
		}
		t := time.Now()
		scores, st := mrbcdist.Run(in.g, in.pt, in.sources, mrbcdist.Options{BatchSize: w.k, Trace: tr})
		out.wall = since(t)
		out.scores, out.rounds, out.bytes, out.messages = scores, st.Rounds, st.Bytes, st.Messages
		if tr != nil {
			if d := tr.Dropped(); d > 0 {
				return out, fmt.Errorf("trace ring of %d dropped %d events", tr.Cap(), d)
			}
			out.events = tr.Events()
		}
	case kindTCP:
		spec := clusterrun.JobSpec{Engine: "mrbcdist", GraphPath: in.path, Partition: w.cut,
			Sources: in.sources, BatchSize: w.k, ShipTrace: o.traced}
		t := time.Now()
		agg, err := in.cluster.Run(spec, clusterrun.RunOptions{Timeout: 60 * time.Second})
		out.wall = since(t)
		if err != nil {
			return out, err
		}
		out.scores, out.rounds, out.bytes, out.messages = agg.Scores, agg.Rounds, agg.Bytes, agg.Messages
		var traces []merge.HostTrace
		for _, r := range agg.PerHost {
			out.retries += r.Retries
			out.redials += r.Redials
			if o.traced {
				if len(r.Trace) >= daemonRingCap {
					return out, fmt.Errorf("host %d shipped %d events: its %d-event ring may have dropped some",
						r.Host, len(r.Trace), daemonRingCap)
				}
				traces = append(traces, merge.FromEvents(r.Host, 0, w.hosts, r.Trace))
			}
		}
		if o.traced {
			m, err := merge.Merge(traces)
			if err != nil {
				return out, fmt.Errorf("merge traces: %w", err)
			}
			out.events = m.Events
		}
	case kindShm:
		// The traced run calls core.BC with the options mrbc.Betweenness
		// passes it (Hosts ≤ 1, Workers 0), because only core.BC returns
		// the runtime's RunStats.
		t := time.Now()
		if o.traced {
			out.scores, out.runStats = core.BC(in.g, in.sources, core.Options{BatchSize: w.k})
			out.wall = since(t)
			out.rounds = out.runStats.Rounds()
		} else {
			res, err := mrbc.Betweenness(in.g, in.sources, mrbc.Options{Hosts: 1, BatchSize: w.k, Workers: 0})
			out.wall = since(t)
			if err != nil {
				return out, err
			}
			out.scores, out.rounds = res.Scores, res.Rounds
		}
	}
	out.mem = readMem().sub(m0)
	out.peakRSSMB = rss.peakMB()
	return out, nil
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
