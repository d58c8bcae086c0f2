// Leader election: run the self-stabilizing population protocol on an
// n-agent clique from both canonical adversarial starts — everyone a
// leader, and nobody a leader — and watch the interaction scheduler
// converge to exactly one leader in Θ(n·log n) interactions. Programmed
// entirely against the public regcast facade (the SchedulerInteractions
// side: PopulationScenario + Runner.RunPopulation).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"

	"regcast"
)

func main() {
	nFlag := flag.Int("n", 1<<10, "number of agents")
	flag.Parse()
	n := *nFlag

	starts := []struct {
		name string
		init func(i, n int, coin uint64) regcast.PopulationState
	}{
		{"all leaders", regcast.InitAllLeaders},
		{"no leaders", regcast.InitLeaderless},
	}
	for _, start := range starts {
		le, err := regcast.NewLeaderElection(n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("start %q: n=%d agents, uniform random pairs\n", start.name, n)
		fmt.Println("  step  changed  leaders")

		sc := regcast.PopulationScenario{
			N:        n,
			Pair:     le,
			Init:     start.init,
			Seed:     42,
			Observer: stepPrinter{},
		}
		// Worker count never changes a result, only wall-clock time.
		res, err := regcast.NewRunner(regcast.WithWorkers(regcast.WorkersAuto)).
			RunPopulation(context.Background(), sc)
		if err != nil {
			log.Fatal(err)
		}

		nlogn := float64(n) * math.Log(float64(n))
		fmt.Printf("  converged=%v at super-step %d: %d interactions = %.2f·n·ln n\n\n",
			res.Converged, res.ConvergedAt, res.ConvergedInteractions,
			float64(res.ConvergedInteractions)/nlogn)
	}
}

// stepPrinter streams per-super-step stats as the engine produces them.
type stepPrinter struct{}

func (stepPrinter) OnSuperStep(s regcast.SuperStepStats) {
	fmt.Printf("  %4d  %7d  %7d\n", s.Step, s.Changed, s.Measure)
}
