// Command benchmark is the repository's benchmark: it runs one named
// betweenness-centrality workload (or all of them), checks every job's
// scores against the sequential Brandes oracle, and prints the
// end-to-end metrics (untraced run) or the per-layer ledger (traced
// run). The last line of standard output is the result object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {"job_s": {"value": 2.31, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload rmat-inproc --seed 1 --seconds 12 --trace 0
//
// README.md in this directory records why each workload exists and
// which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mrbc/internal/brandes"
	"mrbc/internal/obs/merge"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	env     env
}

// Repetitions that make each reported median: the fewest set-up
// samples, and the fewest jobs (or untraced/traced pairs) a run takes
// even when they outlast --seconds.
const (
	setupReps = 5
	minJobs   = 3
	minPairs  = 2
)

// hardLimit bounds one workload's run; the watchdog stops the daemons
// and exits without a result past it.
const hardLimit = 170 * time.Second

func main() {
	var (
		name    = flag.String("workload", "", "workload name, or \"all\"")
		seed    = flag.Int64("seed", 1, "workload seed: the generated graph is a function of it")
		seconds = flag.Float64("seconds", 25, "how long the timed loop measures")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer ledger (traced)")
		bcd     = flag.String("bcd", "", "bcd binary for TCP workloads")
		workdir = flag.String("workdir", os.TempDir(), "directory for generated graph files")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg := config{seed: *seed, seconds: *seconds, env: env{bcd: *bcd, workdir: *workdir}}
	var ws []*workload
	if *name == "all" {
		ws = workloads(false)
	} else {
		w, err := findWorkload(*name, false)
		if err != nil {
			fatalf("%v", err)
		}
		ws = []*workload{w}
	}
	dog := watchdog()

	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		dog.Reset(hardLimit)
		r, err := runWorkload(os.Stdout, w, cfg, *trace == 1)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		if len(ws) == 1 {
			total = r
			break
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, m := range r.Metrics {
			total.Metrics[w.name+"/"+k] = m
		}
	}
	out, err := json.Marshal(total)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
	if !total.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload and writes its environment record and
// a human-readable metric table to w before returning the result.
func runWorkload(w io.Writer, wl *workload, cfg config, traced bool) (result, error) {
	measure := measureE2E
	if traced {
		measure = measureLayers
	}
	r, s, err := measure(wl, cfg)
	if err != nil {
		return r, err
	}
	in := s.in
	rec := environment{
		Workload: wl.name, Seed: cfg.seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: cpuModel(), GoVersion: runtime.Version(), Hosts: wl.hosts, BatchSize: wl.k,
		Sources: wl.sources, Vertices: in.g.NumVertices(), Edges: in.g.NumEdges(),
	}
	if wl.kind == kindTCP {
		rec.DaemonGOMAXPROCS = daemonGOMAXPROCS
	}
	envLine, _ := json.Marshal(map[string]any{"environment": rec})
	fmt.Fprintln(w, string(envLine))
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-14s %-28s %14.6g %s\n", wl.name, k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	return r, nil
}

// session is one workload set up for measurement: the instance every
// job runs on, the oracle scores, the gate, and the set-up samples.
type session struct {
	wl       *workload
	cfg      config
	in       *instance
	g        gate
	setups   []stages
	oracleS  float64
	deadline time.Time
}

// open sets the workload up once and computes the oracle scores,
// outside any timed window.
func open(wl *workload, cfg config) (*session, error) {
	in, err := setup(wl, cfg.seed, cfg.env)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	registerCleanup(in)
	s := &session{wl: wl, cfg: cfg, in: in, setups: []stages{in.stages}}
	t := time.Now()
	s.g.oracle = brandes.Sequential(in.g, in.sources)
	s.oracleS = since(t)
	s.deadline = time.Now().Add(seconds(cfg.seconds))
	return s, nil
}

// more reports whether the timed loop takes another job: always until
// it has taken least, then while more than half a job's time is left
// before the deadline, so a run measures close to --seconds.
func (s *session) more(n, least int, lastWall float64) bool {
	return n < least || time.Until(s.deadline).Seconds() > lastWall/2
}

// sampleSetup times one more set-up of the same input and discards it.
// Set-up samples are spread between jobs, so the set-up median sees the
// same machine state as the job median.
func (s *session) sampleSetup() error {
	in, err := setup(s.wl, s.cfg.seed, s.cfg.env)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	in.close()
	s.setups = append(s.setups, in.stages)
	return nil
}

// finishSetups tops the set-up samples up to setupReps.
func (s *session) finishSetups() error {
	for len(s.setups) < setupReps {
		if err := s.sampleSetup(); err != nil {
			return err
		}
	}
	return nil
}

func (s *session) setupMedian(f func(stages) float64) float64 { return median(mapf(s.setups, f)) }

// measureE2E is the untraced run: timed jobs until --seconds have
// passed, each gated against the oracle, with set-up samples between
// them.
func measureE2E(wl *workload, cfg config) (result, *session, error) {
	s, err := open(wl, cfg)
	if err != nil {
		return result{}, nil, err
	}
	defer s.in.close()
	var walls, rss []float64
	last := 0.0
	for n := 0; s.more(n, minJobs, last); n++ {
		o, err := runJob(s.in, jobOpts{})
		last = o.wall
		if s.g.admit(o, err) {
			walls = append(walls, o.wall)
			rss = append(rss, o.peakRSSMB)
		}
		if err := s.sampleSetup(); err != nil {
			return result{}, nil, err
		}
	}
	if err := s.finishSetups(); err != nil {
		return result{}, nil, err
	}
	r := s.g.result()
	if s.g.ref != nil {
		r.Metrics = map[string]metric{
			"job_s":       {median(walls), "s"},
			"setup_s":     {s.setupMedian(stages.total), "s"},
			"rounds":      {float64(s.g.ref.rounds), "count"},
			"peak_rss_mb": {median(rss), "MB"},
		}
	}
	return r, s, nil
}

// measureLayers is the traced run. It alternates untraced and traced
// jobs, so both sides of each pair see the same machine state and their
// GC cycles can be compared, builds the per-layer ledger of every traced
// job, and checks it against the job's wall time.
func measureLayers(wl *workload, cfg config) (result, *session, error) {
	s, err := open(wl, cfg)
	if err != nil {
		return result{}, nil, err
	}
	defer s.in.close()
	g := &s.g

	ringCap := 0
	if wl.kind == kindInProc {
		// One detail-level run checks Lemma 8 per synchronization and
		// counts the phase-level events, which sizes the timed runs'
		// ring exactly.
		o, n, err := checkLemma8(s.in)
		if !g.admit(o, err) {
			return g.result(), s, nil
		}
		ringCap = n
	}

	var (
		untraced, traced []outcome
		ledgers          []ledger
		residuals        []float64
	)
	last := 0.0
	for n := 0; s.more(n, minPairs, 2*last); n++ {
		u, uerr := runJob(s.in, jobOpts{})
		last = u.wall
		t, terr := runJob(s.in, jobOpts{traced: true, ringCap: ringCap})
		if err := s.sampleSetup(); err != nil {
			return result{}, nil, err
		}
		if uok, tok := g.admit(u, uerr), g.admit(t, terr); !uok || !tok {
			continue
		}
		untraced = append(untraced, u)
		traced = append(traced, t)
		if wl.kind == kindShm {
			continue
		}
		if ringCap > 0 && len(t.events) != ringCap {
			g.fail(fmt.Errorf("traced job emitted %d events, the detail run counted %d", len(t.events), ringCap))
			continue
		}
		l := buildLedger(t.events, wl.hosts)
		if l.totals.PackBytes != t.bytes || l.totals.PackMessages != t.messages {
			g.fail(fmt.Errorf("trace pack volume %d B/%d msgs != stats %d B/%d msgs",
				l.totals.PackBytes, l.totals.PackMessages, t.bytes, t.messages))
			continue
		}
		ledgers = append(ledgers, l)
		residuals = append(residuals, (t.wall-l.unionS())/t.wall)
	}
	if err := s.finishSetups(); err != nil {
		return result{}, nil, err
	}
	if wl.kind == kindTCP && len(traced) > 0 {
		if err := merge.CheckRoundBoundsGlobal(traced[0].events, int(maxDistance(s.in))); err != nil {
			g.fail(fmt.Errorf("Lemma 8 on the merged TCP trace: %w", err))
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return g.result(), s, nil
	}
	m := layerMetrics(s, untraced, traced, ledgers, residuals)
	if len(residuals) > 0 {
		if err := checkResidual(residuals); err != nil {
			g.violate(err)
		}
	}
	if ov := m["trace.overhead_frac"].Value; ov > overheadBound {
		g.violate(fmt.Errorf("tracing overhead %.3f exceeds the %.2f bound", ov, overheadBound))
	}
	if wl.kind == kindInProc {
		if err := gcComparable(m["runtime.gc_cycles"].Value, m["trace.gc_cycles"].Value); err != nil {
			g.violate(err)
		}
	}
	r := g.result()
	r.Metrics = m
	return r, s, nil
}

// mapf applies f to every element of xs.
func mapf[T any](xs []T, f func(T) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// Cleanup: every launched cluster is stopped on exit paths the deferred
// closes do not reach (signals, the watchdog).
var (
	cleanupMu sync.Mutex
	cleanups  []*instance
)

func registerCleanup(in *instance) {
	cleanupMu.Lock()
	cleanups = append(cleanups, in)
	cleanupMu.Unlock()
}

func closeAll() {
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for _, in := range cleanups {
		in.close()
	}
}

func watchdog() *time.Timer {
	dog := time.AfterFunc(hardLimit, func() {
		fmt.Fprintf(os.Stderr, "benchmark: exceeded %v, stopping\n", hardLimit)
		closeAll()
		os.Exit(3)
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		closeAll()
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", s)
		os.Exit(4)
	}()
	return dog
}

func fatalf(format string, args ...any) {
	closeAll()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
