package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/obs"
)

// testEnv is the set-up environment for the tests: a bcd built from
// this checkout and a scratch directory for graph files.
var testEnv env

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mrbc-benchmark-test")
	if err != nil {
		panic(err)
	}
	testEnv = env{bcd: filepath.Join(dir, "bcd"), workdir: dir}
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if out, err := exec.Command(gobin, "build", "-o", testEnv.bcd, "mrbc/cmd/bcd").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build bcd: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	closeAll()
	os.RemoveAll(dir)
	os.Exit(code)
}

func smallWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name, true)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// declared returns the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var ms []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	if err := json.Unmarshal(doc[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

func reported(r result) []string {
	var names []string
	for k, m := range r.Metrics {
		names = append(names, k+" "+m.Unit)
	}
	sort.Strings(names)
	return names
}

// TestSmokeAllWorkloads runs every workload at small size, untraced and
// traced, through the correctness gate: oracle comparison, exact
// counts, the Lemma 8 checks, trace completeness and volume
// conservation. Each run must pass it and report exactly the metrics
// BENCHMARK.json declares, with their units. The stated performance
// bounds (ledger residual, tracing overhead) hold at the benchmark's
// sizes, not on graphs this small, where per-round glue dominates; a
// violation is logged, not failed.
func TestSmokeAllWorkloads(t *testing.T) {
	e2e, layers := declared(t, "end_to_end"), declared(t, "per_layer")
	cfg := config{seed: 7, env: testEnv}
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				measure, want := measureE2E, e2e
				if traced {
					measure, want = measureLayers, layers
				}
				r, s, err := measure(w, cfg)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				for _, v := range s.g.violations {
					t.Logf("traced=%v: bound violated at small size: %s", traced, v)
				}
				if r.Failed != len(s.g.violations) || r.Attempted < minJobs {
					t.Fatalf("traced=%v: attempted=%d failed=%d: %v", traced, r.Attempted, r.Failed, s.g.errs)
				}
				if got := reported(r); !slices.Equal(got, want) {
					t.Errorf("traced=%v: reported metrics\n%v\nBENCHMARK.json declares\n%v", traced, got, want)
				}
				for k, m := range r.Metrics {
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("traced=%v: metric %s = %v", traced, k, m.Value)
					}
				}
			}
		})
	}
}

// TestExactCountsRepeat pins the paper-model counts: rounds, bytes and
// messages are identical across repeated jobs and between untraced and
// traced jobs of the same input.
func TestExactCountsRepeat(t *testing.T) {
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			in, err := setup(w, 3, testEnv)
			if err != nil {
				t.Fatal(err)
			}
			defer in.close()
			var counts []exact
			for _, traced := range []bool{false, false, true, true} {
				o, err := runJob(in, jobOpts{traced: traced, ringCap: 1 << 16})
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				counts = append(counts, o.exact())
			}
			for i, c := range counts {
				if c != counts[0] {
					t.Errorf("job %d counts %+v, job 0 %+v", i, c, counts[0])
				}
			}
			if counts[0].rounds == 0 || (w.kind != kindShm && counts[0].bytes == 0) {
				t.Errorf("implausible counts %+v", counts[0])
			}
		})
	}
}

// TestGateCountsWrongResults checks that the correctness gate counts a
// perturbed score, a non-finite score, an error and a change in exact
// counts as failed operations, and admits the right answer.
func TestGateCountsWrongResults(t *testing.T) {
	w := smallWorkload(t, "rmat-inproc")
	in, err := setup(w, 5, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	oracle := brandes.Sequential(in.g, in.sources)
	good, err := runJob(in, jobOpts{})
	if err != nil {
		t.Fatal(err)
	}
	g := gate{oracle: oracle}
	if !g.admit(good, nil) {
		t.Fatalf("correct run rejected: %v", g.errs)
	}
	perturb := func(f func(s []float64)) outcome {
		o := good
		o.scores = append([]float64(nil), good.scores...)
		f(o.scores)
		return o
	}
	top := 0
	for v, x := range oracle {
		if x > oracle[top] {
			top = v
		}
	}
	recount := good
	recount.rounds++
	wrong := []struct {
		name string
		o    outcome
		err  error
	}{
		{"perturbed score", perturb(func(s []float64) { s[top] *= 1 + 1e-6 }), nil},
		{"NaN score", perturb(func(s []float64) { s[0] = math.NaN() }), nil},
		{"infinite score", perturb(func(s []float64) { s[1] = math.Inf(1) }), nil},
		{"short vector", perturb(func(s []float64) {}), nil},
		{"job error", good, errors.New("host 1 aborted")},
		{"rounds changed", recount, nil},
	}
	wrong[3].o.scores = wrong[3].o.scores[:len(oracle)-1]
	for i, c := range wrong {
		if g.admit(c.o, c.err) {
			t.Errorf("%s: admitted", c.name)
		}
		if g.failed != i+1 {
			t.Errorf("%s: failed count %d, want %d", c.name, g.failed, i+1)
		}
	}
	r := g.result()
	if r.Correct || r.Attempted != len(wrong)+1 || r.Failed != len(wrong) {
		t.Errorf("result %+v", r)
	}
}

// TestLedgerTakesIntervalUnion feeds the ledger two hosts' overlapping
// phases of one round: the exchange slice spans pack and unpack, and the
// hosts pack at the same time. A sum of slices would count the pack
// twice and the exchange on top; the union counts each instant once.
func TestLedgerTakesIntervalUnion(t *testing.T) {
	ph := func(host int32, p obs.Phase, start, dur int64) obs.Event {
		return obs.Event{Kind: obs.KindPhase, Seq: 1, Round: 1, Host: host, Phase: p, StartNs: start, DurNs: dur}
	}
	events := []obs.Event{
		ph(0, obs.PhaseCompute, 0, 100),
		ph(1, obs.PhaseCompute, 0, 60),
		ph(1, obs.PhaseBarrier, 60, 40),
		ph(0, obs.PhasePack, 100, 20),
		ph(1, obs.PhasePack, 100, 20),
		ph(-1, obs.PhaseExchange, 100, 60),
		ph(0, obs.PhaseUnpack, 140, 20),
		ph(1, obs.PhaseUnpack, 140, 20),
	}
	events[5].Seq = 2
	l := buildLedger(events, 2)
	want := [numLayers]float64{100e-9, 20e-9, 20e-9, 20e-9}
	for i := range want {
		if math.Abs(l.layerS[i]-want[i]) > 1e-15 {
			t.Fatalf("layers %v, want %v", l.layerS, want)
		}
	}
	if got := l.unionS(); math.Abs(got-160e-9) > 1e-15 {
		t.Errorf("union %v, want 160ns", got)
	}
	if math.Abs(l.barrierS-20e-9) > 1e-15 {
		t.Errorf("barrier mean %v, want 20ns", l.barrierS)
	}
	if l.roundCount != 1 || math.Abs(l.roundP50Ms-160e-6) > 1e-12 {
		t.Errorf("round count %d wall %v ms", l.roundCount, l.roundP50Ms)
	}
	if math.Abs(l.imbalance-100/80.0) > 1e-12 {
		t.Errorf("imbalance %v, want 1.25", l.imbalance)
	}
	if err := checkResidual([]float64{(200e-9 - l.unionS()) / 200e-9}); err == nil {
		t.Error("a 20% residual passed the wall-conservation check")
	}
	if err := checkResidual([]float64{(150e-9 - l.unionS()) / 150e-9}); err == nil {
		t.Error("layers longer than the wall passed the wall-conservation check")
	}
}
