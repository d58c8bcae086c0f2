package regcast

import (
	"context"
	"fmt"
)

// PopulationBatch runs R seed-derived replications of one
// PopulationScenario on the batch layer's worker pool (Replicate) and
// folds them into the same BatchResult the broadcast batches produce,
// so population ensembles flow through Sweep, Report and regcast-bench
// unchanged. The metric mapping is fixed:
//
//   - Completed / CompletedFrac — replications that converged.
//   - Rounds — ConvergedAt, the convergence super-step, over converged
//     runs only (the analogue of FirstAllInformed).
//   - Transmissions — interactions to convergence
//     (ConvergedInteractions) for converged runs; total interactions
//     executed (censored at the step budget) otherwise.
//   - TxPerNode — the same, divided by the agent count.
//   - InformedFrac — the converged indicator (1 or 0) per run, so its
//     mean is the convergence rate.
//   - ChannelsDialed — total interactions executed, converged or not
//     (the work analogue of the dial budget).
//
// The determinism contract matches Batch: replication streams are
// precomputed in replication order from one master seed, results are
// folded in replication order, and the aggregates are bit-identical for
// every ReplicationWorkers value. Replications inherit the Runner's
// engine selection.
type PopulationBatch struct {
	// Scenario is the replicated run; its Seed/RNG are ignored in favour
	// of per-replication derived streams (set Seed here or on the batch).
	// Scenarios carrying an Observer are rejected: observers are per-run
	// state, shared across concurrent replications.
	Scenario PopulationScenario

	// Replications is R, the number of runs. Required, >= 1.
	Replications int

	// ReplicationWorkers sets the pool width over whole runs: 0 or 1
	// serial, WorkersAuto (-1) GOMAXPROCS, n > 1 n workers. Aggregates
	// are bit-identical for every value.
	ReplicationWorkers int

	// Runner executes each replication; its zero value runs the shard
	// passes inline. Per-run engine parallelism stacks with
	// ReplicationWorkers.
	Runner Runner

	// Seed overrides the master seed the replication streams derive
	// from; when 0 the scenario's Seed applies.
	Seed uint64

	// KeepResults retains every replication's PopulationResult (in
	// replication order) in the returned Results slice.
	KeepResults bool
}

func (b PopulationBatch) validate() error {
	if b.Replications <= 0 {
		return fmt.Errorf("regcast: population batch needs Replications >= 1, got %d", b.Replications)
	}
	if b.ReplicationWorkers < WorkersAuto {
		return fmt.Errorf("regcast: population batch ReplicationWorkers %d invalid (use WorkersAuto, 0 or a positive count)", b.ReplicationWorkers)
	}
	if b.Scenario.Observer != nil {
		return fmt.Errorf("regcast: population batch scenarios cannot carry observers (per-run state shared across concurrent replications)")
	}
	if b.Scenario.RNG != nil {
		return fmt.Errorf("regcast: population batch scenarios must use Seed, not RNG: replications re-derive their streams from the master seed")
	}
	return nil
}

// Run executes the batch and returns the aggregate in the broadcast
// batches' BatchResult shape (see the metric mapping above).
// Cancelling ctx aborts outstanding replications and returns ctx.Err().
func (b PopulationBatch) Run(ctx context.Context) (BatchResult, error) {
	return b.run(ctx, nil)
}

// RunKeeping is Run plus the retained per-replication results when
// KeepResults is set (BatchResult.Results cannot hold them: it is typed
// for broadcast runs).
func (b PopulationBatch) RunKeeping(ctx context.Context) (BatchResult, []PopulationResult, error) {
	var kept []PopulationResult
	if b.KeepResults {
		kept = make([]PopulationResult, b.Replications)
	}
	res, err := b.run(ctx, kept)
	return res, kept, err
}

func (b PopulationBatch) run(ctx context.Context, kept []PopulationResult) (BatchResult, error) {
	if err := b.validate(); err != nil {
		return BatchResult{}, err
	}
	seed := b.Seed
	if seed == 0 {
		seed = b.Scenario.Seed
	}

	type outcome struct {
		converged   bool
		convergedAt int
		convInter   int64
		totalInter  int64
	}
	outcomes := make([]outcome, b.Replications)
	err := Replicate(ctx, seed, b.Replications, b.ReplicationWorkers, func(rep int, rng *Rand) error {
		sc := b.Scenario
		sc.RNG = rng
		res, err := b.Runner.RunPopulation(ctx, sc)
		if err != nil {
			return fmt.Errorf("regcast: population batch replication %d: %w", rep, err)
		}
		outcomes[rep] = outcome{
			converged:   res.Converged,
			convergedAt: res.ConvergedAt,
			convInter:   res.ConvergedInteractions,
			totalInter:  res.Interactions,
		}
		if kept != nil {
			kept[rep] = res
		}
		return nil
	})
	if err != nil {
		return BatchResult{}, err
	}

	// Fold strictly in replication order — the same order-sensitivity
	// argument as Batch.Run.
	br := BatchResult{Replications: b.Replications}
	rounds, tx, txPerNode, work, convFrac := newMetricAgg(), newMetricAgg(), newMetricAgg(), newMetricAgg(), newMetricAgg()
	n := float64(b.Scenario.N)
	for rep := range outcomes {
		o := outcomes[rep]
		inter := o.totalInter
		ind := 0.0
		if o.converged {
			br.Completed++
			rounds.add(float64(o.convergedAt))
			inter = o.convInter
			ind = 1
		}
		tx.add(float64(inter))
		if n > 0 {
			txPerNode.add(float64(inter) / n)
		}
		work.add(float64(o.totalInter))
		convFrac.add(ind)
	}
	br.Rounds = rounds.aggregate()
	br.Transmissions = tx.aggregate()
	br.TxPerNode = txPerNode.aggregate()
	br.ChannelsDialed = work.aggregate()
	br.InformedFrac = convFrac.aggregate()
	return br, nil
}
