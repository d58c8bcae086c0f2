package regcast_test

import (
	"context"
	"testing"

	"regcast"
	"regcast/internal/core"
)

// interfaceOnly hides every optional interface of topo except Stepper,
// so the engine reads it through the bare Topology interface: the
// reference the view-backed runs are pinned against.
func interfaceOnly(topo regcast.Topology) regcast.Topology {
	if st, ok := topo.(regcast.Stepper); ok {
		return struct {
			regcast.Topology
			regcast.Stepper
		}{topo, st}
	}
	return struct{ regcast.Topology }{topo}
}

// viewlessSpec builds its spec's topology behind interfaceOnly.
type viewlessSpec struct{ regcast.TopologySpec }

func (s viewlessSpec) Build(rep int, rng *regcast.Rand) (regcast.Topology, error) {
	topo, err := s.TopologySpec.Build(rep, rng)
	if err != nil {
		return nil, err
	}
	return interfaceOnly(topo), nil
}

// TestRunnerViewlessTopologyGolden pins the facade's view contract: a
// Static topology run on its CSR view (the default) and the same graph
// behind the bare Topology interface produce bit-identical results, so
// both reproduce the exact golden traces — at the default and at a
// pinned shard count.
func TestRunnerViewlessTopologyGolden(t *testing.T) {
	g := goldenGraph(t)
	four, err := core.New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	viewless, err := regcast.NewScenario(interfaceOnly(regcast.Static(g)), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	defaultShards := golden{46, 23, 2048, 32720, 376832, 0xfcfefd4eec75bfd1}
	res, err := regcast.Run(context.Background(), scenario)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fourchoice", res, defaultShards)
	res, err = regcast.Run(context.Background(), viewless)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fourchoice/viewless", res, defaultShards)

	res, err = regcast.Run(context.Background(), viewless, regcast.WithWorkers(2), regcast.WithShards(16))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "sharded16/fourchoice/viewless", res, golden{46, 23, 2048, 32720, 376832, 0xd6df1d4371527f14})
}
