package regcast

import (
	"context"
	"encoding/json"
	"flag"
	"reflect"
	"strings"
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

// TestBatchPopulationReplicationWorkerIndependent pins the batch-level
// guarantee for population scenarios: the JSON-serialised aggregate is
// byte-identical for every ReplicationWorkers value.
func TestBatchPopulationReplicationWorkerIndependent(t *testing.T) {
	le, err := NewLeaderElection(120)
	if err != nil {
		t.Fatal(err)
	}
	base := Batch{
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

// TestBatchPopulationMetricMapping checks that a population batch runs
// replication r on the r-th stream split from the master seed and folds
// each run through Runner.Run's population mapping.
func TestBatchPopulationMetricMapping(t *testing.T) {
	le, err := NewLeaderElection(100)
	if err != nil {
		t.Fatal(err)
	}
	sc := PopulationScenario{N: 100, Pair: le, Init: InitAllLeaders, Seed: 2}
	res, err := Batch{Scenario: sc, Replications: 6, KeepResults: true}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 6 {
		t.Fatalf("kept %d results, want 6", len(res.Results))
	}
	master := NewRand(2) // Split() is New(Uint64()): replication r runs on Seed = r-th draw
	conv := 0
	for rep, r := range res.Results {
		run := sc
		run.Seed = master.Uint64()
		pres, err := NewRunner().RunPopulation(context.Background(), run)
		if err != nil {
			t.Fatal(err)
		}
		if want := populationResult(EngineSharded, sc.N, pres); !reflect.DeepEqual(r, want) {
			t.Fatalf("replication %d: got %+v, want %+v", rep, r, want)
		}
		if r.AllInformed {
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

func TestBatchPopulationValidation(t *testing.T) {
	le, _ := NewLeaderElection(16)
	sc := PopulationScenario{N: 16, Pair: le, Seed: 1}
	var nilScenario *PopulationScenario
	for _, c := range []struct {
		name string
		b    Batch
		want string
	}{
		{"no-reps", Batch{Scenario: sc}, "Replications"},
		{"observer", Batch{Scenario: PopulationScenario{N: 16, Pair: le, Observer: observerStub{}}, Replications: 1}, "observers"},
		{"randomize-source", Batch{Scenario: sc, Replications: 1, RandomizeSource: true}, "no source"},
		{"nil-scenario", Batch{Replications: 1}, "Scenario or a New"},
		{"nil-pointer", Batch{Scenario: nilScenario, Replications: 1}, "Scenario or a New"},
		{"scenario-and-new", Batch{Scenario: &sc, New: func(int, *Rand) (Scenario, error) { return Scenario{}, nil }, Replications: 1}, "mutually exclusive"},
	} {
		if _, err := c.b.Run(context.Background()); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestBatchAcceptsPopulationScenarioPointer: a *PopulationScenario
// replicates exactly like the value it points to.
func TestBatchAcceptsPopulationScenarioPointer(t *testing.T) {
	le, err := NewLeaderElection(64)
	if err != nil {
		t.Fatal(err)
	}
	sc := PopulationScenario{N: 64, Pair: le, Init: InitAllLeaders, Seed: 3}
	byVal, err := Batch{Scenario: sc, Replications: 3}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byPtr, err := Batch{Scenario: &sc, Replications: 3}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byVal, byPtr) {
		t.Fatalf("pointer batch differs:\n got %+v\nwant %+v", byPtr, byVal)
	}
	if byVal.Completed == 0 {
		t.Fatal("no replication converged")
	}
}

type observerStub struct{}

func (observerStub) OnSuperStep(SuperStepStats) {}

// TestSweepPopulationCells runs a tiny sweep whose Build returns
// population batches and checks the report carries the population cells
// in the standard schema.
func TestSweepPopulationCells(t *testing.T) {
	sw := Sweep{
		Name: "population-test",
		Seed: 5,
		Axes: []Axis{Vals("n", 60, 120)},
		Build: func(p Point) (Batch, error) {
			n := p.Value("n").(int)
			le, err := NewLeaderElection(n)
			if err != nil {
				return Batch{}, err
			}
			return Batch{
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

	if _, err := (Sweep{Name: "no-build", Axes: sw.Axes}).Run(context.Background()); err == nil {
		t.Error("Sweep.Run accepted a sweep with no build function")
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
