package regcast

import (
	"context"
	"encoding/json"
	"flag"
	"reflect"
	"testing"
)

// TestRunPopulationWorkerIndependent pins the facade-level bit-identity
// guarantee: Runner.RunPopulation produces the same result for the
// default inline worker (0), one worker, four workers and WorkersAuto.
func TestRunPopulationWorkerIndependent(t *testing.T) {
	le, err := NewLeaderElection(250)
	if err != nil {
		t.Fatal(err)
	}
	sc := PopulationScenario{N: 250, Pair: le, Init: InitAllLeaders, Seed: 9}
	var want PopulationResult
	for i, workers := range []int{0, 1, 4, WorkersAuto} {
		res, err := NewRunner(WithWorkers(workers)).RunPopulation(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = res
			if !res.Converged {
				t.Fatalf("run did not converge in %d steps", res.Steps)
			}
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("workers=%d result differs from workers=0:\n got %+v\nwant %+v", workers, res, want)
		}
	}
}

// TestPopulationBatchReplicationWorkerIndependent pins the batch-level
// guarantee: the JSON-serialised aggregate is byte-identical for every
// ReplicationWorkers value.
func TestPopulationBatchReplicationWorkerIndependent(t *testing.T) {
	le, err := NewLeaderElection(120)
	if err != nil {
		t.Fatal(err)
	}
	base := PopulationBatch{
		Scenario:     PopulationScenario{N: 120, Pair: le, Init: InitLeaderless, Seed: 4},
		Replications: 8,
	}
	var want []byte
	for i, workers := range []int{0, 1, 4} {
		b := base
		b.ReplicationWorkers = workers
		res, err := b.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		buf, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf
			if res.Completed == 0 {
				t.Fatal("no replication converged")
			}
			continue
		}
		if string(buf) != string(want) {
			t.Fatalf("ReplicationWorkers=%d aggregate differs:\n got %s\nwant %s", workers, buf, want)
		}
	}
}

func TestPopulationBatchMetricMapping(t *testing.T) {
	le, err := NewLeaderElection(100)
	if err != nil {
		t.Fatal(err)
	}
	b := PopulationBatch{
		Scenario:     PopulationScenario{N: 100, Pair: le, Init: InitAllLeaders, Seed: 2},
		Replications: 6,
		KeepResults:  true,
	}
	res, kept, err := b.RunKeeping(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 6 {
		t.Fatalf("kept %d results, want 6", len(kept))
	}
	conv := 0
	for _, r := range kept {
		if r.Converged {
			conv++
		}
	}
	if res.Completed != conv {
		t.Fatalf("Completed %d, want converged count %d", res.Completed, conv)
	}
	if res.InformedFrac.Mean != float64(conv)/6 {
		t.Fatalf("InformedFrac mean %v, want convergence rate %v", res.InformedFrac.Mean, float64(conv)/6)
	}
	if res.Rounds.N != conv {
		t.Fatalf("Rounds aggregated %d runs, want converged count %d", res.Rounds.N, conv)
	}
}

func TestPopulationBatchValidation(t *testing.T) {
	le, _ := NewLeaderElection(16)
	sc := PopulationScenario{N: 16, Pair: le, Seed: 1}
	for name, b := range map[string]PopulationBatch{
		"no-reps":  {Scenario: sc},
		"observer": {Scenario: PopulationScenario{N: 16, Pair: le, Observer: observerStub{}}, Replications: 1},
		"rng":      {Scenario: PopulationScenario{N: 16, Pair: le, RNG: NewRand(1)}, Replications: 1},
	} {
		if _, err := b.Run(context.Background()); err == nil {
			t.Errorf("%s: Run accepted an invalid batch", name)
		}
	}
}

type observerStub struct{}

func (observerStub) OnSuperStep(SuperStepStats) {}

// TestSweepBuildPopulation runs a tiny population sweep end-to-end and
// checks the report carries the population cells in the standard schema.
func TestSweepBuildPopulation(t *testing.T) {
	sw := Sweep{
		Name: "population-test",
		Seed: 5,
		Axes: []Axis{Vals("n", 60, 120)},
		BuildPopulation: func(p Point) (PopulationBatch, error) {
			n := p.Value("n").(int)
			le, err := NewLeaderElection(n)
			if err != nil {
				return PopulationBatch{}, err
			}
			return PopulationBatch{
				Scenario: PopulationScenario{N: n, Pair: le, Init: InitAllLeaders, Seed: p.Seed},
			}, nil
		},
		Replications: 4,
	}
	rep, err := sw.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != ReportSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, ReportSchema)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("%d cells, want 2", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Replications != 4 {
			t.Fatalf("cell %s ran %d replications, want 4", c.Label, c.Replications)
		}
		if c.Completed == 0 {
			t.Fatalf("cell %s: no replication converged", c.Label)
		}
	}

	// Exactly one of Build and BuildPopulation must be set.
	if _, err := (Sweep{Name: "neither", Axes: sw.Axes}).Run(context.Background()); err == nil {
		t.Error("Sweep.Run accepted a sweep with no build function")
	}
	both := sw
	both.Build = func(p Point) (Batch, error) { return Batch{}, nil }
	if _, err := both.Run(context.Background()); err == nil {
		t.Error("Sweep.Run accepted a sweep with both build functions")
	}
}

func TestSchedulerFlag(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want Scheduler
		ok   bool
	}{
		{nil, SchedulerRounds, true},
		{[]string{"-scheduler", "rounds"}, SchedulerRounds, true},
		{[]string{"-scheduler", "interactions"}, SchedulerInteractions, true},
		{[]string{"-scheduler", "nope"}, 0, false},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := AddCommonFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		err := f.Validate()
		if tc.ok != (err == nil) {
			t.Fatalf("args %v: Validate error %v, want ok=%v", tc.args, err, tc.ok)
		}
		if tc.ok && f.Scheduler() != tc.want {
			t.Fatalf("args %v: scheduler %v, want %v", tc.args, f.Scheduler(), tc.want)
		}
	}
	if s, err := ParseScheduler("interactions"); err != nil || s != SchedulerInteractions {
		t.Fatalf("ParseScheduler(interactions) = %v, %v", s, err)
	}
	if got := SchedulerInteractions.String(); got != "interactions" {
		t.Fatalf("String() = %q", got)
	}
}

// TestPopFastPathFlag pins the -pop-fastpath wiring: the default Runner
// keeps the population fast path on, and -pop-fastpath=false routes
// WithoutPopulationFastPath into RunnerOptions.
func TestPopFastPathFlag(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		disable bool
	}{
		{nil, false},
		{[]string{"-pop-fastpath=true"}, false},
		{[]string{"-pop-fastpath=false"}, true},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		f := AddCommonFlags(fs)
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatal(err)
		}
		r := f.Runner()
		if r.noPopFastPath != tc.disable {
			t.Fatalf("args %v: noPopFastPath=%v, want %v", tc.args, r.noPopFastPath, tc.disable)
		}
	}
}
