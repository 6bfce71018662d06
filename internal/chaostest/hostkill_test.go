package chaostest

import (
	"testing"

	"mrbc/internal/brandes"
	"mrbc/internal/dgalois"
	"mrbc/internal/elastic"
	"mrbc/internal/gen"
	"mrbc/internal/gluon"
	"mrbc/internal/graph"
	"mrbc/internal/mrbcdist"
	"mrbc/internal/partition"
)

const (
	killSweepSeeds = 48 // full sweep size (acceptance floor: 40)
	killShortSeeds = 12 // -short cap (floor: 10)
)

// supervisedKillRun drives one seeded kill schedule through the
// elastic supervisor over the in-process engine, checkpointing at
// every batch boundary.
func supervisedKillRun(g *graph.Graph, pt *partition.Partitioning, sources []uint32,
	kills []gluon.Kill, bus *elastic.Bus) ([]float64, dgalois.Stats, *elastic.Report, error) {
	sup := &elastic.Supervisor{Sink: elastic.NewMemSink(), Bus: bus, Kills: kills}
	return sup.Run(func(resume *elastic.Snapshot, armed []gluon.Kill) ([]float64, dgalois.Stats, error) {
		plan := &gluon.FaultPlan{Seed: 1, DeadlineSteps: 16, Kills: armed}
		return mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{
			BatchSize:  4,
			Transport:  lossy(pt, plan),
			Checkpoint: sup.Sink,
			Resume:     resume,
		})
	})
}

// TestHostKillSweep is the elastic chaos sweep: seeded host-kill
// schedules (kill at batch b / mid-exchange / mid-pack, derived from
// the same splitmix64 hashing as the link faults) drive the supervised
// checkpoint/restore loop. Every schedule must (1) fire at least one
// kill, (2) recover to scores within 1e-9 of the Brandes oracle, and
// (3) leave the paper-model Stats.Bytes/Messages identical to a
// kill-free run, with all discarded re-execution volume isolated in
// Stats.Faults. A failing seed replays with -run TestHostKillSweep and
// the printed seed.
func TestHostKillSweep(t *testing.T) {
	graphs := []*graph.Graph{
		gen.RMAT(6, 8, 42),
		gen.RoadGrid(6, 6, 7),
	}
	type base struct {
		pt    *partition.Partitioning
		src   []uint32
		want  []float64
		clean dgalois.Stats
	}
	hostsOf := []int{2, 4, 8}
	// Kill-free baselines per (graph, cut, hosts) cell, computed once.
	bases := make(map[[3]int]*base)
	cell := func(gi, ci, hi int) *base {
		k := [3]int{gi, ci, hi}
		if b, ok := bases[k]; ok {
			return b
		}
		g := graphs[gi]
		numSrc := 16
		if n := g.NumVertices(); n < numSrc {
			numSrc = n
		}
		src := brandes.FirstKSources(g, 0, numSrc)
		pt := cuts[ci].make(g, hostsOf[hi])
		_, clean, err := mrbcdist.RunChecked(g, pt, src, mrbcdist.Options{BatchSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		b := &base{pt: pt, src: src, want: brandes.Sequential(g, src), clean: clean}
		bases[k] = b
		return b
	}

	seeds := killSweepSeeds
	if testing.Short() {
		seeds = killShortSeeds
	}
	fired := 0
	for seed := 0; seed < seeds; seed++ {
		gi := seed % len(graphs)
		ci := (seed / len(graphs)) % len(cuts)
		hi := (seed / len(graphs) / len(cuts)) % len(hostsOf)
		b := cell(gi, ci, hi)
		hosts := hostsOf[hi]

		kills := gluon.KillSchedule(uint64(seed), hosts, 1+seed%2)
		got, stats, rep, err := supervisedKillRun(graphs[gi], b.pt, b.src, kills, nil)
		if err != nil {
			t.Fatalf("seed=%d hosts=%d kills=%v: recovery failed: %v", seed, hosts, kills, err)
		}
		if rep.Kills == 0 {
			t.Fatalf("seed=%d hosts=%d: schedule %v never fired — kill positions too deep for this run", seed, hosts, kills)
		}
		fired += rep.Kills
		if !approxEqual(got, b.want, 1e-9) {
			t.Fatalf("seed=%d hosts=%d kills=%v: BC diverged from Brandes oracle after recovery", seed, hosts, kills)
		}
		if stats.Bytes != b.clean.Bytes || stats.Messages != b.clean.Messages {
			t.Fatalf("seed=%d: paper-model volume polluted by recovery: got %d B/%d msgs, kill-free %d B/%d msgs",
				seed, stats.Bytes, stats.Messages, b.clean.Bytes, b.clean.Messages)
		}
		if stats.Faults == nil || stats.Faults.Kills != int64(rep.Kills) {
			t.Fatalf("seed=%d: kill accounting missing from Stats.Faults: %+v vs report %+v", seed, stats.Faults, rep)
		}
		if int64(rep.Restores) != stats.Faults.Restores {
			t.Fatalf("seed=%d: restore accounting diverged: stats %d, report %d", seed, stats.Faults.Restores, rep.Restores)
		}
	}
	if fired < seeds {
		t.Fatalf("only %d kills fired across %d schedules — every schedule must kill at least one host", fired, seeds)
	}
}

// TestHostKillRecoveryIsolatesVolume pins the recovery-cost accounting
// on one fixed schedule: the discarded attempt's paper-model volume
// must land in Stats.Faults.RecoveryBytes/RecoveryMessages, and a
// mid-run kill (past the first boundary) must resume from a checkpoint
// rather than from scratch.
func TestHostKillRecoveryIsolatesVolume(t *testing.T) {
	g := gen.RMAT(6, 8, 42)
	pt := partition.EdgeCut(g, 4)
	sources := brandes.FirstKSources(g, 0, 16)
	_, clean, err := mrbcdist.RunChecked(g, pt, sources, mrbcdist.Options{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Exchange 30 lands well inside the second half of the run, so at
	// least one boundary checkpoint precedes the kill.
	kills := []gluon.Kill{{Host: 2, Exchange: 30, Step: 3}}
	bus := elastic.NewBus()
	events, cancel := bus.Subscribe("", 64)
	defer cancel()
	got, stats, rep, err := supervisedKillRun(g, pt, sources, kills, bus)
	if err != nil {
		t.Fatal(err)
	}
	want := brandes.Sequential(g, sources)
	if !approxEqual(got, want, 1e-9) {
		t.Fatal("BC diverged from Brandes oracle after recovery")
	}
	if rep.Kills != 1 || rep.Attempts != 2 {
		t.Fatalf("schedule should kill exactly once: %+v", rep)
	}
	if rep.Restores != 1 || len(rep.ResumeBatches) != 1 || rep.ResumeBatches[0] == 0 {
		t.Fatalf("mid-run kill must resume from a boundary checkpoint, not scratch: %+v", rep)
	}
	if stats.Bytes != clean.Bytes || stats.Messages != clean.Messages {
		t.Fatalf("paper-model volume diverged: %d B/%d msgs vs clean %d/%d",
			stats.Bytes, stats.Messages, clean.Bytes, clean.Messages)
	}
	f := stats.Faults
	if f.RecoveryBytes <= 0 || f.RecoveryMessages <= 0 {
		t.Fatalf("discarded attempt's volume not accounted as recovery cost: %+v", f)
	}
	if f.RecoveryBytes >= clean.Bytes {
		t.Fatalf("recovery bytes %d exceed a whole clean run (%d) despite boundary resume", f.RecoveryBytes, clean.Bytes)
	}
	// The membership bus saw the death and the rollback.
	var topics []string
	for len(events) > 0 {
		topics = append(topics, (<-events).Topic)
	}
	wantTopics := []string{elastic.TopicHostDown, elastic.TopicRollback, elastic.TopicResumed}
	for _, w := range wantTopics {
		found := false
		for _, tp := range topics {
			if tp == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("bus never published %q (saw %v)", w, topics)
		}
	}
}

// TestKillScheduleIsPure pins that kill schedules are a pure function
// of their seed, like every other fault decision.
func TestKillScheduleIsPure(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a := gluon.KillSchedule(seed, 8, 3)
		b := gluon.KillSchedule(seed, 8, 3)
		if len(a) != 3 || len(b) != 3 {
			t.Fatalf("seed=%d: wrong schedule length", seed)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed=%d: schedule not reproducible: %v vs %v", seed, a, b)
			}
			if a[i].Host < 0 || a[i].Host >= 8 {
				t.Fatalf("seed=%d: kill host %d out of range", seed, a[i].Host)
			}
		}
	}
}
