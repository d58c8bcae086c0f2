package phonecall_test

import (
	"fmt"
	"testing"

	"regcast/internal/baseline"
	"regcast/internal/core"
	"regcast/internal/p2p/overlay"
	"regcast/internal/phonecall"
	"regcast/internal/xrand"
)

// churnTopo fuses an overlay with its churner, exactly like the facade's
// OverlaySpec topology and experiment E13b: the engine sees one dynamic
// topology that is simultaneously a Stepper and (through the embedded
// overlay) a CSRViewer + AliveCounter.
type churnTopo struct {
	*overlay.Overlay
	ch *overlay.Churner
}

func (c churnTopo) Step(round int) []int { return c.ch.Step(round) }

var (
	_ phonecall.Stepper   = churnTopo{}
	_ phonecall.CSRViewer = churnTopo{}
)

// churnGolden describes one churn configuration of the golden matrix.
type churnGolden struct {
	name                string
	joinProb, leaveProb float64
	mixSteps            int
	proto               func(t *testing.T, n int) phonecall.Protocol
	mutate              func(cfg *phonecall.Config)
}

// buildChurnTopo constructs a fresh overlay + churner pair from seed.
// Fast and reference runs each get their own instance (churn mutates the
// topology), built from the same seed so both experience the identical
// membership trajectory — the churner draws only from its own streams.
func buildChurnTopo(t *testing.T, n, d int, g churnGolden, seed uint64) churnTopo {
	t.Helper()
	master := xrand.New(seed)
	ov, err := overlay.New(n, d, n, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	ch, err := overlay.NewChurner(ov, g.joinProb, g.leaveProb, g.mixSteps, master.Split())
	if err != nil {
		t.Fatal(err)
	}
	return churnTopo{ov, ch}
}

// TestFastPathGoldenChurn extends the tentpole bit-identity contract to
// churning topologies: on the overlay (an epoch-stamped CSRViewer), the
// fast path must reproduce the reference interface path draw for draw —
// across join/leave churn, degree-preserving mix-only churn, fault
// models, pull schedules, and several worker counts.
func TestFastPathGoldenChurn(t *testing.T) {
	const n, d = 192, 8
	alg1 := func(t *testing.T, n int) phonecall.Protocol {
		p, err := core.NewAlgorithm1(n)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	push := func(t *testing.T, n int) phonecall.Protocol {
		p, err := baseline.NewPush(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	cases := []churnGolden{
		{
			// E13b's shape: joins and leaves move membership every round,
			// so the alive bitset, the CSR rows and the epoch all churn.
			name: "join-leave", joinProb: 0.03, leaveProb: 0.03, mixSteps: 3,
			proto: alg1,
		},
		{
			// Degree-preserving rewiring only: membership is fixed but the
			// adjacency (and hence the epoch) changes every round — the
			// config that catches a stale-CSR bug the join/leave case could
			// mask behind membership refreshes.
			name: "mix-only", joinProb: 0, leaveProb: 0, mixSteps: 25,
			proto: push,
		},
		{
			name: "join-leave-channel-failure", joinProb: 0.02, leaveProb: 0.05, mixSteps: 2,
			proto:  alg1,
			mutate: func(cfg *phonecall.Config) { cfg.ChannelFailureProb = 0.2 },
		},
		{
			name: "mix-only-message-loss-geometric", joinProb: 0, leaveProb: 0, mixSteps: 10,
			proto: alg1,
			mutate: func(cfg *phonecall.Config) {
				cfg.MessageLossProb = 0.15
				cfg.GeometricFaults = true
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				run := func(disable bool) phonecall.Result {
					topo := buildChurnTopo(t, n, d, tc, 1712)
					cfg := phonecall.Config{
						Topology:        topo,
						Protocol:        tc.proto(t, n),
						Source:          5,
						RNG:             xrand.New(20260726),
						RecordRounds:    true,
						Workers:         workers,
						DisableFastPath: disable,
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
				label := fmt.Sprintf("%s workers=%d", tc.name, workers)
				sameResult(t, label, run(false), run(true))
			}
		})
	}
}

// TestChurnRunActuallyChurns guards the goldens against vacuity: the
// join/leave configuration must end with a different membership than it
// started with, so the alive bitset and epoch paths really execute.
func TestChurnRunActuallyChurns(t *testing.T) {
	topo := buildChurnTopo(t, 192, 8, churnGolden{joinProb: 0.05, leaveProb: 0.05, mixSteps: 3}, 7)
	proto, err := core.NewAlgorithm1(192)
	if err != nil {
		t.Fatal(err)
	}
	res, err := phonecall.Run(phonecall.Config{
		Topology: topo,
		Protocol: proto,
		RNG:      xrand.New(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.ch.Joins == 0 || topo.ch.Leaves == 0 {
		t.Fatalf("churner performed %d joins / %d leaves; the golden matrix would be vacuous", topo.ch.Joins, topo.ch.Leaves)
	}
	if err := topo.CheckInvariants(); err != nil {
		t.Fatalf("overlay invariants broken after a fast-path churn run: %v", err)
	}
	if res.Rounds == 0 {
		t.Fatal("run executed no rounds")
	}
}
