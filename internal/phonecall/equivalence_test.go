package phonecall_test

import (
	"math"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// equivCase is one protocol family of the E1–E20 matrix, run over many
// seeds to compare engine statistics rather than traces.
type equivCase struct {
	name   string
	churn  bool // churning overlay (E13b) instead of the shared static graph
	proto  func(t *testing.T, n int) phonecall.Protocol
	mutate func(cfg *phonecall.Config)
	// legacy holds the statistics the retired single-stream round loop
	// (one PRNG stream consumed in receipt-cohort order) produced for this
	// case over the same seeds, recorded while that loop still existed.
	legacy equivStats
}

// equivStats are the distributional summaries compared across engines.
type equivStats struct {
	meanRounds float64 // mean FirstAllInformed over completed runs
	seRounds   float64 // standard error of meanRounds
	txPerNode  float64 // mean transmissions / n
	completion float64 // share of runs with FirstAllInformed >= 0
	informed   float64 // mean informed share of alive nodes at the end
}

const (
	equivN    = 512
	equivReps = 60
)

func equivCases() []equivCase {
	alg1 := func(t *testing.T, n int) phonecall.Protocol {
		p, err := core.NewAlgorithm1(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return []equivCase{
		{
			name: "algorithm1", proto: alg1,
			legacy: equivStats{18.4500, 0.3331, 15.96250, 1, 1},
		},
		{
			name: "algorithm2",
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := core.NewAlgorithm2(n)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			legacy: equivStats{18.4500, 0.3331, 19.96250, 1, 1},
		},
		{
			name: "push-k1",
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPush(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			legacy: equivStats{18.2333, 0.1491, 16.44668, 1, 1},
		},
		{
			name: "push-pull-k1",
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPushPull(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			legacy: equivStats{9.9833, 0.0557, 12.50101, 1, 1},
		},
		{
			name: "sequentialised-memory3",
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
			legacy: equivStats{66.3667, 2.1626, 15.96693, 1, 1},
		},
		{
			name: "quasirandom-push",
			proto: func(t *testing.T, n int) phonecall.Protocol {
				p, err := baseline.NewPush(n, 1)
				if err != nil {
					t.Fatal(err)
				}
				return p
			},
			mutate: func(cfg *phonecall.Config) { cfg.DialStrategy = phonecall.DialQuasirandom },
			legacy: equivStats{15.0500, 0.0992, 17.50055, 1, 1},
		},
		{
			name: "algorithm1-channel-failure", proto: alg1,
			mutate: func(cfg *phonecall.Config) { cfg.ChannelFailureProb = 0.2 },
			legacy: equivStats{19.2000, 0.0521, 12.67731, 1, 1},
		},
		{
			name: "algorithm1-message-loss", proto: alg1,
			mutate: func(cfg *phonecall.Config) { cfg.MessageLossProb = 0.2 },
			legacy: equivStats{19.2000, 0.0521, 15.84766, 1, 1},
		},
		// Peers joining after the pull phase stay uninformed, so runs on
		// the churning overlay rarely end all-informed; the informed share
		// of alive nodes (E13b's measure) carries this family.
		{
			name: "algorithm1-churning-overlay", churn: true, proto: alg1,
			legacy: equivStats{0, 0, 15.98988, 0, 0.96074},
		},
	}
}

// equivRun measures one case over equivReps seeds.
func equivRun(t *testing.T, tc equivCase) equivStats {
	t.Helper()
	g := mustRegular(t, equivN, 8, 5151)
	var st equivStats
	var rounds []float64
	for seed := uint64(0); seed < equivReps; seed++ {
		var topo phonecall.Topology = phonecall.NewStatic(g)
		if tc.churn {
			topo = buildChurnTopo(t, equivN, 8, churnGolden{joinProb: 0.002, leaveProb: 0.002, mixSteps: 3}, 9000+seed)
		}
		cfg := phonecall.Config{
			Topology: topo,
			Protocol: tc.proto(t, equivN),
			Source:   int(seed) % equivN,
			RNG:      xrand.New(7000 + seed),
		}
		if tc.mutate != nil {
			tc.mutate(&cfg)
		}
		res, err := phonecall.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st.txPerNode += float64(res.Transmissions) / equivN
		st.informed += float64(res.Informed) / float64(res.AliveNodes)
		if res.FirstAllInformed >= 0 {
			rounds = append(rounds, float64(res.FirstAllInformed))
		}
	}
	st.txPerNode /= equivReps
	st.informed /= equivReps
	st.completion = float64(len(rounds)) / equivReps
	if len(rounds) > 1 {
		for _, r := range rounds {
			st.meanRounds += r
		}
		st.meanRounds /= float64(len(rounds))
		var ss float64
		for _, r := range rounds {
			ss += (r - st.meanRounds) * (r - st.meanRounds)
		}
		st.seRounds = math.Sqrt(ss / float64(len(rounds)-1) / float64(len(rounds)))
	}
	return st
}

// TestShardedMatchesLegacyStatistics compares the round loop with the
// statistics of the retired single-stream loop (equivCase.legacy) over
// equivReps seeds for every E1–E20 protocol family. The two loops consume
// randomness in different orders, so only their distributions can agree:
// mean completion round within 1 round (or 3 standard errors of the
// difference, for the families whose completion round spreads by several
// rounds: Algorithm 1/2 and the sequentialised model), mean tx/node
// within 3%, the completion rate within 0.1 and the informed share of
// alive nodes within 0.01. The same test passed against the live legacy
// loop before that loop was deleted.
func TestShardedMatchesLegacyStatistics(t *testing.T) {
	for _, tc := range equivCases() {
		t.Run(tc.name, func(t *testing.T) {
			legacy, sharded := tc.legacy, equivRun(t, tc)
			t.Logf("sharded rounds=%.4f se=%.4f tx/node=%.5f completion=%.4f informed=%.5f", sharded.meanRounds, sharded.seRounds, sharded.txPerNode, sharded.completion, sharded.informed)
			bound := math.Max(1, 3*math.Hypot(legacy.seRounds, sharded.seRounds))
			if d := legacy.meanRounds - sharded.meanRounds; math.Abs(d) > bound {
				t.Errorf("mean rounds: legacy %.2f vs sharded %.2f", legacy.meanRounds, sharded.meanRounds)
			}
			if r := sharded.txPerNode / legacy.txPerNode; math.Abs(r-1) > 0.03 {
				t.Errorf("mean tx/node: legacy %.3f vs sharded %.3f (ratio %.4f)", legacy.txPerNode, sharded.txPerNode, r)
			}
			if d := legacy.completion - sharded.completion; math.Abs(d) > 0.1 {
				t.Errorf("completion rate: legacy %.3f vs sharded %.3f", legacy.completion, sharded.completion)
			}
			if d := legacy.informed - sharded.informed; math.Abs(d) > 0.01 {
				t.Errorf("informed share: legacy %.4f vs sharded %.4f", legacy.informed, sharded.informed)
			}
		})
	}
}
