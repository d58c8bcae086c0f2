// Package phonecall_test holds the cross-package contracts of the engine:
// the CSR fast path pinned bit-identical to the reference interface path
// across the E1–E20 configuration matrix (built from the real protocol
// packages, which the internal test package cannot import), the geometric
// fault-skipping mode's determinism and statistics, and the dial-budget
// cache exercised on the E13b churn overlay.
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

// TestFastPathGoldenE1toE20 pins the tentpole contract: for every
// configuration shape the E1–E20 experiments use — protocols, dial
// strategies, fault models, dial memory, the edge census, degree regimes
// — the CSR fast path produces bit-identical traces to the reference
// interface path, with the shard passes inline and on a worker pool. Geometric fault skipping changes RNG consumption
// relative to Bernoulli mode, but fast-vs-reference identity holds inside
// each mode, so both are pinned.
func TestFastPathGoldenE1toE20(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			topo := tc.topo(t)
			proto := tc.proto(t, topo.NumNodes())
			for _, geometric := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					base := phonecall.Config{
						Topology:        topo,
						Protocol:        proto,
						Source:          3,
						RecordRounds:    true,
						Workers:         workers,
						GeometricFaults: geometric,
					}
					if tc.mutate != nil {
						tc.mutate(&base)
					}
					run := func(disable bool) phonecall.Result {
						cfg := base
						cfg.DisableFastPath = disable
						cfg.RNG = xrand.New(20260726)
						res, err := phonecall.Run(cfg)
						if err != nil {
							t.Fatal(err)
						}
						return res
					}
					label := fmt.Sprintf("%s workers=%d geometric=%v (%s)", tc.name, workers, geometric, tc.experiments)
					sameResult(t, label, run(false), run(true))
				}
			}
		})
	}
}

// dynamicRing is a small churning topology (one node flaps) WITHOUT a
// CSR view; the fast path must not engage on it, and forcing the
// reference path must be a no-op — both runs take the same code path and
// must match trivially. (Churning topologies WITH a CSR view — the
// overlay — engage the fast path and are pinned bit-identical to the
// reference path by TestFastPathGoldenChurn.)
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

// TestFastPathDisengagesOnChurn covers viewless dynamic topologies: they
// stay on the reference path and DisableFastPath changes nothing.
func TestFastPathDisengagesOnChurn(t *testing.T) {
	g := mustRegular(t, 128, 6, 31)
	push, err := baseline.NewPush(128, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(disable bool) phonecall.Result {
		res, err := phonecall.Run(phonecall.Config{
			Topology:        &dynamicRing{g: g},
			Protocol:        push,
			RNG:             xrand.New(77),
			RecordRounds:    true,
			DisableFastPath: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "churn (E13b shape)", run(false), run(true))
}

// TestGeometricFaultsDeterminism pins the compatibility contract of
// Config.GeometricFaults: same seed => same trace, worker-count
// independence on the sharded engine, and a genuinely different stream
// consumption than Bernoulli mode (the reason the switch exists).
func TestGeometricFaultsDeterminism(t *testing.T) {
	g := mustRegular(t, 256, 8, 91)
	pp, err := baseline.NewPushPull(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int, geometric bool) phonecall.Result {
		res, err := phonecall.Run(phonecall.Config{
			Topology:           phonecall.NewStatic(g),
			Protocol:           pp,
			RNG:                xrand.New(5),
			ChannelFailureProb: 0.15,
			MessageLossProb:    0.25,
			GeometricFaults:    geometric,
			RecordRounds:       true,
			Workers:            workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameResult(t, "geometric same-seed", run(0, true), run(0, true))
	sameResult(t, "geometric workers 1 vs 8", run(1, true), run(8, true))

	bern, geom := run(0, false), run(0, true)
	same := bern.Transmissions == geom.Transmissions && bern.FirstAllInformed == geom.FirstAllInformed
	if same {
		for v := range bern.InformedAt {
			if bern.InformedAt[v] != geom.InformedAt[v] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("geometric mode reproduced the Bernoulli trace exactly; the compatibility switch is not switching anything")
	}
}

// longPushProto is a one-choice always-push schedule with an explicit
// horizon, for statistics that must outlive the baseline schedules'
// c·log n budget under heavy loss.
type longPushProto struct{ horizon int }

func (p longPushProto) Name() string            { return "test-long-push" }
func (p longPushProto) Choices() int            { return 1 }
func (p longPushProto) Horizon() int            { return p.horizon }
func (p longPushProto) SendPush(t, ia int) bool { return true }
func (p longPushProto) SendPull(t, ia int) bool { return false }
func (p longPushProto) NeverPulls() bool        { return true }

// TestGeometricFaultsStatistics checks the geometric skip counters
// realise the right fault rates.
//
// Channel failures have an exact per-round expectation: on a push-only
// schedule every informed sender dials min(k, d) channels and each
// independently fails with probability p, so over the whole run
// E[transmissions] = (1-p) × (dialled sender channels). Both quantities
// are measurable from the per-round metrics, and the ratio must land
// within a few standard errors of 1-p.
//
// Message loss has no per-transmission observable (duplicates mask
// deliveries), so the two modes are compared distributionally instead:
// mean completion round and mean transmissions over many seeds must
// agree between Bernoulli and geometric sampling, as in the sharded-vs-
// legacy equivalence test (TestShardedMatchesLegacyStatistics).
func TestGeometricFaultsStatistics(t *testing.T) {
	g := mustRegular(t, 512, 8, 121)
	push, err := baseline.NewPush(512, 1)
	if err != nil {
		t.Fatal(err)
	}

	const p = 0.3
	var senderDials, tx int64
	for seed := uint64(0); seed < 10; seed++ {
		res, err := phonecall.Run(phonecall.Config{
			Topology:           phonecall.NewStatic(g),
			Protocol:           push,
			RNG:                xrand.New(1000 + seed),
			ChannelFailureProb: p,
			GeometricFaults:    true,
			RecordRounds:       true,
		})
		if err != nil {
			t.Fatal(err)
		}
		informed := int64(1)
		for _, rm := range res.PerRound {
			senderDials += informed // every informed node dials one channel
			informed = int64(rm.Informed)
		}
		tx += res.Transmissions
	}
	got := float64(tx) / float64(senderDials)
	want := 1 - p
	// senderDials ~ 700k trials; 4 standard errors of a Bernoulli mean is
	// well under 0.005 — use 0.01 for slack.
	if got < want-0.01 || got > want+0.01 {
		t.Errorf("geometric channel-failure rate: established fraction %.4f, want %.2f +/- 0.01", got, want)
	}

	// A generous horizon: the baseline schedule's c·log n rounds can fall
	// short under 30% loss, and an incomplete run would skew the means.
	const reps = 30
	longPush := longPushProto{horizon: 400}
	stat := func(geometric bool) (meanRounds, meanTx float64) {
		for seed := uint64(0); seed < reps; seed++ {
			res, err := phonecall.Run(phonecall.Config{
				Topology:        phonecall.NewStatic(g),
				Protocol:        longPush,
				RNG:             xrand.New(4000 + seed),
				MessageLossProb: 0.3,
				GeometricFaults: geometric,
				StopEarly:       true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !res.AllInformed {
				t.Fatalf("lossy push incomplete at seed %d", seed)
			}
			meanRounds += float64(res.FirstAllInformed)
			meanTx += float64(res.Transmissions)
		}
		return meanRounds / reps, meanTx / reps
	}
	bRounds, bTx := stat(false)
	gRounds, gTx := stat(true)
	if diff := bRounds - gRounds; diff > 1.5 || diff < -1.5 {
		t.Errorf("mean completion rounds: Bernoulli %.2f vs geometric %.2f differ too much", bRounds, gRounds)
	}
	if ratio := gTx / bTx; ratio < 0.95 || ratio > 1.05 {
		t.Errorf("mean transmissions: Bernoulli %.1f vs geometric %.1f (ratio %.4f) differ too much", bTx, gTx, ratio)
	}
}
