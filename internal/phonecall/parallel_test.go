package phonecall

import (
	"testing"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// pushPullProto pushes and pulls in every round.
type pushPullProto struct {
	k, horizon int
}

func (p pushPullProto) Name() string            { return "test-pushpull" }
func (p pushPullProto) Choices() int            { return p.k }
func (p pushPullProto) Horizon() int            { return p.horizon }
func (p pushPullProto) SendPush(t, ia int) bool { return true }
func (p pushPullProto) SendPull(t, ia int) bool { return true }

// runWorkers runs cfg with the given worker count and a fixed seed.
func runWorkers(t *testing.T, cfg Config, workers int) Result {
	t.Helper()
	cfg.Workers = workers
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertSameTrace fails unless a and b are bit-identical runs.
func assertSameTrace(t *testing.T, a, b Result) {
	t.Helper()
	if a.Rounds != b.Rounds || a.Transmissions != b.Transmissions ||
		a.ChannelsDialed != b.ChannelsDialed || a.FirstAllInformed != b.FirstAllInformed ||
		a.Informed != b.Informed || a.AllInformed != b.AllInformed {
		t.Fatalf("summaries differ:\n%+v\n%+v", a, b)
	}
	for v := range a.InformedAt {
		if a.InformedAt[v] != b.InformedAt[v] {
			t.Fatalf("InformedAt[%d] = %d vs %d", v, a.InformedAt[v], b.InformedAt[v])
		}
	}
	if len(a.PerRound) != len(b.PerRound) {
		t.Fatalf("PerRound lengths differ: %d vs %d", len(a.PerRound), len(b.PerRound))
	}
	for i := range a.PerRound {
		if a.PerRound[i] != b.PerRound[i] {
			t.Fatalf("PerRound[%d] differs: %+v vs %+v", i, a.PerRound[i], b.PerRound[i])
		}
	}
}

// TestShardedTraceIndependentOfWorkers is the core determinism contract:
// for a fixed seed and shard count, the sharded engine produces
// bit-identical traces for every worker count, across the full feature
// matrix (push, pull, push&pull, loss, channel failure, quasirandom
// dialing, dial memory, edge-use tracking).
func TestShardedTraceIndependentOfWorkers(t *testing.T) {
	g := testGraph(t, 512, 8, 21)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"push", Config{Protocol: pushProto{2, 60}, RecordRounds: true}},
		{"pull", Config{Protocol: pullProto{1, 80}, RecordRounds: true}},
		{"push-pull", Config{Protocol: pushPullProto{2, 40}, RecordRounds: true}},
		{"lossy", Config{Protocol: pushPullProto{2, 60}, MessageLossProb: 0.3, ChannelFailureProb: 0.2, RecordRounds: true}},
		{"quasirandom", Config{Protocol: pushProto{2, 60}, DialStrategy: DialQuasirandom, RecordRounds: true}},
		{"avoid-recent", Config{Protocol: pushProto{1, 120}, AvoidRecent: 3, RecordRounds: true}},
		{"edge-use", Config{Protocol: pushPullProto{2, 40}, TrackEdgeUse: true, RecordRounds: true}},
		{"stop-early", Config{Protocol: pushProto{4, 100}, StopEarly: true, RecordRounds: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Topology = NewStatic(g)
			cfg.Source = 7
			for _, workers := range []int{2, 3, 8} {
				cfg.RNG = xrand.New(1234)
				base := runWorkers(t, cfg, 1)
				cfg.RNG = xrand.New(1234)
				par := runWorkers(t, cfg, workers)
				assertSameTrace(t, base, par)
			}
		})
	}
}

// churnTopo is a static ring whose highest-id node dies after round 3 and
// rejoins (uninformed) after round 6, exercising the Stepper path.
type churnTopo struct {
	g     *graph.Graph
	round int
}

func (c *churnTopo) NumNodes() int         { return c.g.NumNodes() }
func (c *churnTopo) Degree(v int) int      { return c.g.Degree(v) }
func (c *churnTopo) Neighbor(v, i int) int { return c.g.Neighbor(v, i) }
func (c *churnTopo) Alive(v int) bool {
	if v == c.g.NumNodes()-1 {
		return c.round < 3 || c.round >= 6
	}
	return true
}
func (c *churnTopo) Step(round int) []int {
	c.round = round
	if round == 6 {
		return []int{c.g.NumNodes() - 1}
	}
	return nil
}

// TestShardedChurnMatchesAcrossWorkers runs the sharded engine on a
// churning topology and checks worker-count independence there too.
func TestShardedChurnMatchesAcrossWorkers(t *testing.T) {
	g := testGraph(t, 128, 6, 31)
	run := func(workers int) Result {
		res, err := Run(Config{
			Topology:     &churnTopo{g: g},
			Protocol:     pushProto{2, 40},
			Source:       0,
			RNG:          xrand.New(77),
			RecordRounds: true,
			Workers:      workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	assertSameTrace(t, run(1), run(8))
}

// TestShardedTraceIndependentOfShardGeometry checks odd shard counts
// (including more shards than nodes) still broadcast correctly; shard
// count is part of the trace definition, so only self-consistency across
// worker counts is required, not equality across shard counts.
func TestShardedShardGeometry(t *testing.T) {
	g := testGraph(t, 100, 6, 41)
	for _, shards := range []int{1, 3, 17, 100, 250} {
		cfg := Config{
			Topology: NewStatic(g),
			Protocol: pushProto{2, 60},
			Shards:   shards,
		}
		cfg.RNG = xrand.New(5)
		a := runWorkers(t, cfg, 1)
		cfg.RNG = xrand.New(5)
		b := runWorkers(t, cfg, 4)
		assertSameTrace(t, a, b)
		if !a.AllInformed {
			t.Errorf("shards=%d: broadcast incomplete (%d/%d)", shards, a.Informed, a.AliveNodes)
		}
	}
}

// TestShardedEdgeUse checks the census semantics of the per-shard
// edge-use buffers: U(t) is non-increasing and push&pull exhausts it.
func TestShardedEdgeUse(t *testing.T) {
	g := testGraph(t, 128, 6, 61)
	cfg := Config{
		Topology:     NewStatic(g),
		Protocol:     pushPullProto{2, 30},
		RecordRounds: true,
		TrackEdgeUse: true,
	}
	cfg.RNG = xrand.New(9)
	res := runWorkers(t, cfg, 8)
	prev := g.NumNodes() + 1
	for _, rm := range res.PerRound {
		if rm.UnusedEdgeNodes > prev {
			t.Fatalf("U(t) increased: %d -> %d at round %d", prev, rm.UnusedEdgeNodes, rm.Round)
		}
		prev = rm.UnusedEdgeNodes
	}
	if prev != 0 {
		t.Errorf("push&pull for 30 rounds left %d nodes with unused edges", prev)
	}
}

// TestWorkersAutoAndValidation covers the new Config surface.
func TestWorkersAutoAndValidation(t *testing.T) {
	g := testGraph(t, 64, 4, 71)
	cfg := Config{Topology: NewStatic(g), Protocol: pushProto{1, 40}, RNG: xrand.New(2), Workers: WorkersAuto}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Errorf("WorkersAuto run incomplete: %d/%d", res.Informed, res.AliveNodes)
	}

	cfg.Workers = -2
	if _, err := NewEngine(cfg); err == nil {
		t.Error("Workers=-2 accepted")
	}
	cfg.Workers = 1
	cfg.Shards = -1
	if _, err := NewEngine(cfg); err == nil {
		t.Error("Shards=-1 accepted")
	}
}

// TestShardedSilentAndBudget runs a silent protocol on a worker pool: no
// transmissions, but the full dial budget is charged (every alive node
// dials min(k, degree) channels per round).
func TestShardedSilentAndBudget(t *testing.T) {
	g := testGraph(t, 64, 4, 81)
	res, err := Run(Config{
		Topology: NewStatic(g),
		Protocol: silentProto{20},
		RNG:      xrand.New(3),
		Workers:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Informed != 1 || res.Transmissions != 0 {
		t.Errorf("silent sharded run: informed=%d tx=%d", res.Informed, res.Transmissions)
	}
	if res.ChannelsDialed != int64(64*1*20) {
		t.Errorf("ChannelsDialed = %d, want %d", res.ChannelsDialed, 64*20)
	}
}
