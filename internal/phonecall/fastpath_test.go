// Package phonecall_test holds the cross-package contracts of the engine:
// CSR-view runs pinned bit-identical to the same runs fed through the
// bare Topology interface across the E1–E20 configuration matrix (built
// from the real protocol packages, which the internal test package cannot
// import), and the dial-budget cache exercised on the E13b churn overlay.
package phonecall_test

import (
	"fmt"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/graph"
	"regcast/internal/oblivious"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// sameResult fails unless a and b are bit-identical runs.
func sameResult(t *testing.T, label string, a, b phonecall.Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions ||
		a.ChannelsDialed != b.ChannelsDialed || a.FirstAllInformed != b.FirstAllInformed ||
		a.Informed != b.Informed || a.AllInformed != b.AllInformed || a.AliveNodes != b.AliveNodes {
		t.Fatalf("%s: summaries differ:\n%+v\n%+v", label, a, b)
	}
	for v := range a.InformedAt {
		if a.InformedAt[v] != b.InformedAt[v] {
			t.Fatalf("%s: InformedAt[%d] = %d vs %d", label, v, a.InformedAt[v], b.InformedAt[v])
		}
	}
	if len(a.PerRound) != len(b.PerRound) {
		t.Fatalf("%s: PerRound lengths differ: %d vs %d", label, len(a.PerRound), len(b.PerRound))
	}
	for i := range a.PerRound {
		if a.PerRound[i] != b.PerRound[i] {
			t.Fatalf("%s: PerRound[%d] differs: %+v vs %+v", label, i, a.PerRound[i], b.PerRound[i])
		}
	}
}

// interfaceOnly hides every optional interface of topo except Stepper,
// so the engine reads it through viewAdapter: the reference the
// CSR-view runs are pinned against.
func interfaceOnly(topo phonecall.Topology) phonecall.Topology {
	if s, ok := topo.(phonecall.Stepper); ok {
		return struct {
			phonecall.Topology
			phonecall.Stepper
		}{topo, s}
	}
	return struct{ phonecall.Topology }{topo}
}

func mustRegular(t testing.TB, n, d int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// goldenCase is one configuration of the E1–E20 matrix. The experiments
// field records which experiments the configuration stands in for (E15
// and E20 run on their own engines — MultiEngine and the median-counter
// state machine — which do not have a CSR fast path and are out of
// scope here).
type goldenCase struct {
	name        string
	experiments string
	topo        func(t *testing.T) phonecall.Topology
	proto       func(t *testing.T, n int) phonecall.Protocol
	mutate      func(cfg *phonecall.Config)
}

const goldenN = 512

func regularTopo(d int) func(t *testing.T) phonecall.Topology {
	return func(t *testing.T) phonecall.Topology {
		return phonecall.NewStatic(mustRegular(t, goldenN, d, 1701))
	}
}

func goldenCases() []goldenCase {
	fourChoice := func(t *testing.T, n int) phonecall.Protocol {
		p, err := core.New(n, 8)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	push := func(k int) func(t *testing.T, n int) phonecall.Protocol {
		return func(t *testing.T, n int) phonecall.Protocol {
			p, err := baseline.NewPush(n, k)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
	}
	return []goldenCase{
		{
			name: "four-choice-alg1", experiments: "E1 E2 E5 E6 E9 E13a E19",
			topo: regularTopo(8), proto: fourChoice,
		},
		{
			name: "four-choice-alg2", experiments: "E3",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := core.NewAlgorithm2(n)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "push-k1-stop-early", experiments: "E2 E9 E19",
			topo: regularTopo(8), proto: push(1),
			mutate: func(cfg *phonecall.Config) { cfg.StopEarly = true },
		},
		{
			name: "pull-k1", experiments: "E9",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPull(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "push-pull-k1", experiments: "E9 E18",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPushPull(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "push-k2", experiments: "E10",
			topo: regularTopo(8), proto: push(2),
		},
		{
			name: "push-k3", experiments: "E10",
			topo: regularTopo(8), proto: push(3),
		},
		{
			name: "oblivious-always-both", experiments: "E4",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := oblivious.AlwaysBoth(60)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "oblivious-push-then-pull", experiments: "E4",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := oblivious.PushThenPull(9, 60)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "sequentialised-memory3", experiments: "E11",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				base, err := core.NewAlgorithm1(n)
				if err != nil {
					t.Fatal(err)
				}
				return core.NewSequentialised(base)
			},
			mutate: func(cfg *phonecall.Config) {
				cfg.AvoidRecent = cfg.Protocol.(*core.Sequentialised).Memory()
			},
		},
		{
			name: "four-choice-channel-failure", experiments: "E12",
			topo: regularTopo(8), proto: fourChoice,
			mutate: func(cfg *phonecall.Config) { cfg.ChannelFailureProb = 0.2 },
		},
		{
			name: "four-choice-message-loss", experiments: "E12",
			topo: regularTopo(8), proto: fourChoice,
			mutate: func(cfg *phonecall.Config) { cfg.MessageLossProb = 0.2 },
		},
		{
			name: "push-pull-k2-edge-census", experiments: "E7 E8",
			topo: regularTopo(8),
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPushPull(n, 2)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			mutate: func(cfg *phonecall.Config) { cfg.TrackEdgeUse = true },
		},
		{
			name: "quasirandom-push", experiments: "E17",
			topo: regularTopo(8), proto: push(1),
			mutate: func(cfg *phonecall.Config) { cfg.DialStrategy = phonecall.DialQuasirandom },
		},
		{
			name: "complete-graph-rejection-regime", experiments: "E14 E16",
			topo: func(t *testing.T) phonecall.Topology {
				g, err := graph.Complete(128)
				if err != nil {
					t.Fatal(err)
				}
				return phonecall.NewStatic(g)
			},
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := core.New(128, 127)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
		{
			name: "ring-degree-cap", experiments: "E16",
			topo: func(t *testing.T) phonecall.Topology {
				g, err := graph.Ring(96)
				if err != nil {
					t.Fatal(err)
				}
				return phonecall.NewStatic(g)
			},
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPush(96, 4) // k=4 capped by degree 2
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
		},
	}
}

// TestFastPathGoldenE1toE20 pins the view contract: for every
// configuration shape the E1–E20 experiments use — protocols, dial
// strategies, fault models, dial memory, the edge census, degree regimes
// — a run on the topology's CSR view is bit-identical to the same run
// fed through the bare Topology interface (viewAdapter's computed
// layout, with the endpoint-keyed census), with the shard passes inline
// and on a worker pool.
func TestFastPathGoldenE1toE20(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo(t)
			proto := tc.proto(t, topo.NumNodes())
			for _, workers := range []int{1, 4} {
				run := func(topo phonecall.Topology) phonecall.Result {
					cfg := phonecall.Config{
						Topology:     topo,
						Protocol:     proto,
						Source:       3,
						RNG:          xrand.New(20260726),
						RecordRounds: true,
						Workers:      workers,
					}
					if tc.mutate != nil {
						tc.mutate(&cfg)
					}
					res, err := phonecall.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				label := fmt.Sprintf("%s workers=%d (%s)", tc.name, workers, tc.experiments)
				sameResult(t, label, run(topo), run(interfaceOnly(topo)))
			}
		})
	}
}

// dynamicRing is a small churning topology (one node flaps) without a
// view, so the engine reads it through viewAdapter, which rebuilds the
// alive bitset after every Step.
type dynamicRing struct {
	g     *graph.Graph
	round int
}

func (c *dynamicRing) NumNodes() int         { return c.g.NumNodes() }
func (c *dynamicRing) Degree(v int) int      { return c.g.Degree(v) }
func (c *dynamicRing) Neighbor(v, i int) int { return c.g.Neighbor(v, i) }
func (c *dynamicRing) Alive(v int) bool {
	if v == c.g.NumNodes()-1 {
		return c.round < 3 || c.round >= 6
	}
	return true
}
func (c *dynamicRing) Step(round int) []int {
	c.round = round
	if round == 6 {
		return []int{c.g.NumNodes() - 1}
	}
	return nil
}

// dynamicRingCSR is dynamicRing with an epoch-stamped CSR view of the
// same churn: the graph's arrays, a bitset built from Alive, and the
// round as the epoch.
type dynamicRingCSR struct{ *dynamicRing }

func (c dynamicRingCSR) CSRView() (offsets, adj []int32, alive []uint64, epoch uint64) {
	offsets, adj = c.g.CSR()
	alive = make([]uint64, (c.NumNodes()+63)/64)
	for v := 0; v < c.NumNodes(); v++ {
		if c.Alive(v) {
			alive[v>>6] |= 1 << (v & 63)
		}
	}
	return offsets, adj, alive, uint64(c.round)
}

// TestFastPathDisengagesOnChurn covers viewless dynamic topologies: the
// adapter's per-Step bitset must reproduce a CSR view of the same churn
// draw for draw, through the node's death and its rejoin. Neighbours keep
// dialling the dead node, so the samplers' dead-target arms run.
func TestFastPathDisengagesOnChurn(t *testing.T) {
	g := mustRegular(t, 128, 6, 31)
	push, err := baseline.NewPush(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushPull, err := baseline.NewPushPull(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	alg1, err := core.NewAlgorithm1(128)
	if err != nil {
		t.Fatal(err)
	}
	seq := core.NewSequentialised(alg1)
	for _, tc := range []struct {
		name   string
		proto  phonecall.Protocol
		mutate func(cfg *phonecall.Config)
	}{
		{"uniform", pushPull, func(*phonecall.Config) {}},
		{"quasirandom", push, func(cfg *phonecall.Config) { cfg.DialStrategy = phonecall.DialQuasirandom }},
		{"dial-memory", seq, func(cfg *phonecall.Config) { cfg.AvoidRecent = seq.Memory() }},
	} {
		run := func(topo phonecall.Topology) phonecall.Result {
			cfg := phonecall.Config{
				Topology:           topo,
				Protocol:           tc.proto,
				RNG:                xrand.New(77),
				ChannelFailureProb: 0.1,
				RecordRounds:       true,
			}
			tc.mutate(&cfg)
			res, err := phonecall.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sameResult(t, "churn (E13b shape) "+tc.name, run(dynamicRingCSR{&dynamicRing{g: g}}), run(&dynamicRing{g: g}))
	}
}
