package regcast

import (
	"context"
	"strings"
	"testing"
)

// TestRunAcceptsEveryScenarioKind pins the sealed AnyScenario union: the
// single Runner.Run entry point executes both scenario kinds, by value
// and by pointer, and a population run through it folds into the shared
// Result shape with exactly the PopulationBatch metric mapping, while
// Runner.RunPopulation keeps the population-specific fields (Measure).
func TestRunAcceptsEveryScenarioKind(t *testing.T) {
	le, err := NewLeaderElection(128)
	if err != nil {
		t.Fatal(err)
	}
	sc := PopulationScenario{N: 128, Pair: le, Init: InitAllLeaders, Seed: 9}

	pres, err := NewRunner().RunPopulation(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !pres.Converged {
		t.Fatal("leader election did not converge; pick a different seed for this pin")
	}
	if pres.Measure != 1 {
		t.Errorf("converged leader election left %d leaders", pres.Measure)
	}

	for _, s := range []AnyScenario{sc, &sc} {
		res, err := Run(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != pres.Steps {
			t.Errorf("Rounds = %d, want super-steps %d", res.Rounds, pres.Steps)
		}
		if res.ChannelsDialed != pres.Interactions {
			t.Errorf("ChannelsDialed = %d, want total interactions %d", res.ChannelsDialed, pres.Interactions)
		}
		if !res.AllInformed || res.Informed != 128 || res.AliveNodes != 128 {
			t.Errorf("converged mapping: AllInformed=%v Informed=%d AliveNodes=%d", res.AllInformed, res.Informed, res.AliveNodes)
		}
		if res.FirstAllInformed != pres.ConvergedAt {
			t.Errorf("FirstAllInformed = %d, want convergence step %d", res.FirstAllInformed, pres.ConvergedAt)
		}
		if res.Transmissions != pres.ConvergedInteractions {
			t.Errorf("Transmissions = %d, want interactions to convergence %d", res.Transmissions, pres.ConvergedInteractions)
		}
	}

	// Broadcast scenarios keep working through the same entry point, by
	// value and by pointer.
	g, err := NewRegularGraph(256, 8, NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewFourChoice(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	bsc, err := NewScenario(Static(g), proto, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	byVal, err := Run(context.Background(), bsc)
	if err != nil {
		t.Fatal(err)
	}
	byPtr, err := Run(context.Background(), &bsc)
	if err != nil {
		t.Fatal(err)
	}
	if byVal.Rounds != byPtr.Rounds || byVal.Transmissions != byPtr.Transmissions {
		t.Error("value and pointer Scenario runs diverged")
	}

	if _, err := Run(context.Background(), nil); err == nil {
		t.Error("Run accepted a nil scenario")
	}
}

// TestRunRejectsForeignScenario documents the sealed union: the only way
// to get an unsupported-kind error is a new in-package kind that forgot
// its Run case, and the error names the offending type.
func TestRunRejectsForeignScenario(t *testing.T) {
	_, err := NewRunner().Run(context.Background(), badScenario{})
	if err == nil || !strings.Contains(err.Error(), "badScenario") {
		t.Errorf("want an unsupported-kind error naming the type, got %v", err)
	}
}

// badScenario simulates an in-package scenario kind missing its Run
// case; external packages cannot construct one (anyScenario is
// unexported), which is the point of the sealed interface.
type badScenario struct{}

func (badScenario) anyScenario() {}
