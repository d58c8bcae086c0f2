package regcast_test

import (
	"context"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
)

// TestRunnerWithoutFastPath pins the facade's two-path engine contract:
// the CSR fast path (the default on Static topologies) and the reference
// interface path produce bit-identical results, so forcing the reference
// path must reproduce the exact golden traces of the fast path — at the
// default and at a pinned shard count.
func TestRunnerWithoutFastPath(t *testing.T) {
	g := goldenGraph(t)
	four, err := core.New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defaultShards := golden{46, 23, 2048, 32720, 376832, 0xfcfefd4eec75bfd1}
	res, err := regcast.Run(context.Background(), scenario)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fourchoice", res, defaultShards)
	res, err = regcast.Run(context.Background(), scenario, regcast.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fourchoice/no-fast-path", res, defaultShards)

	res, err = regcast.Run(context.Background(), scenario,
		regcast.WithWorkers(2), regcast.WithShards(16), regcast.WithoutFastPath())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sharded16/fourchoice/no-fast-path", res, golden{46, 23, 2048, 32720, 376832, 0xd6df1d4371527f14})
}

// TestGeometricFaultsThroughFacade covers the compatibility switch end to
// end: deterministic, independent of the worker count, and different
// from the Bernoulli-mode trace.
func TestGeometricFaultsThroughFacade(t *testing.T) {
	g, err := regcast.NewRegularGraph(512, 8, regcast.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := baseline.NewPushPull(512, 2)
	if err != nil {
		t.Fatal(err)
	}
	build := func(opts ...regcast.ScenarioOption) regcast.Scenario {
		opts = append([]regcast.ScenarioOption{
			regcast.WithSeed(11),
			regcast.WithChannelFailure(0.1),
			regcast.WithMessageLoss(0.2),
		}, opts...)
		s, err := regcast.NewScenario(regcast.Static(g), pp, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	geom := build(regcast.WithGeometricFaults())

	seq, err := regcast.Run(context.Background(), geom)
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := regcast.Run(context.Background(), geom)
	if err != nil {
		t.Fatal(err)
	}
	if hashTrace(seq.InformedAt) != hashTrace(seq2.InformedAt) || seq.Transmissions != seq2.Transmissions {
		t.Error("geometric-fault run is not reproducible from the seed")
	}

	w1, err := regcast.Run(context.Background(), geom, regcast.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	w4, err := regcast.Run(context.Background(), geom, regcast.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if hashTrace(w1.InformedAt) != hashTrace(w4.InformedAt) || w1.Transmissions != w4.Transmissions {
		t.Error("geometric-fault sharded run depends on the worker count")
	}

	bern, err := regcast.Run(context.Background(), build())
	if err != nil {
		t.Fatal(err)
	}
	if hashTrace(bern.InformedAt) == hashTrace(seq.InformedAt) && bern.Transmissions == seq.Transmissions {
		t.Error("geometric mode reproduced the Bernoulli trace; the switch is not switching anything")
	}
}
