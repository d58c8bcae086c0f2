package regcast_test

import (
	"context"
	"errors"
	"hash/fnv"
	"reflect"
	"strings"
	"testing"

	"regcast"
	"regcast/internal/baseline"
	"regcast/internal/core"
)

// hashTrace fingerprints an InformedAt trace for the bit-identity pins.
func hashTrace(informedAt []int32) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, v := range informedAt {
		buf[0] = byte(v)
		buf[1] = byte(v >> 8)
		buf[2] = byte(v >> 16)
		buf[3] = byte(v >> 24)
		h.Write(buf[:])
	}
	return h.Sum64()
}

// goldenGraph is the fixed topology of the determinism pins.
func goldenGraph(t testing.TB) *regcast.Graph {
	t.Helper()
	g, err := regcast.NewRegularGraph(2048, 8, regcast.NewRand(1001))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

type golden struct {
	rounds, firstAll, informed int
	tx, dials                  int64
	hash                       uint64
}

func checkGolden(t *testing.T, name string, res regcast.Result, want golden) {
	t.Helper()
	got := golden{res.Rounds, res.FirstAllInformed, res.Informed,
		res.Transmissions, res.ChannelsDialed, hashTrace(res.InformedAt)}
	if got != want {
		t.Errorf("%s: trace diverged from the pre-facade engine:\ngot  %+v\nwant %+v", name, got, want)
	}
}

// TestFacadeTraceGoldenSharded pins the simulator at a fixed shard
// count: bit-identical to the pre-redesign sharded engine for the default
// runner and every worker count (0 and 1 inline, 2–4, WorkersAuto).
func TestFacadeTraceGoldenSharded(t *testing.T) {
	g := goldenGraph(t)
	four, err := core.New(2048, 8)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), four, regcast.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	runners := []regcast.Runner{regcast.NewRunner(regcast.WithShards(16))}
	for _, workers := range []int{0, 1, 2, 3, 4, regcast.WorkersAuto} {
		runners = append(runners, regcast.NewRunner(regcast.WithWorkers(workers), regcast.WithShards(16)))
	}
	for _, runner := range runners {
		res, err := runner.Run(context.Background(), scenario)
		if err != nil {
			t.Fatal(err)
		}
		if res.Engine != regcast.EngineSharded {
			t.Fatalf("engine = %v, want sharded", res.Engine)
		}
		checkGolden(t, "sharded16/fourchoice", res, golden{46, 23, 2048, 32720, 376832, 0xd6df1d4371527f14})
	}
}

// TestFacadeTraceGoldenQuasirandom pins the quasirandom dial strategy
// through the facade (push-only baseline, early stop).
func TestFacadeTraceGoldenQuasirandom(t *testing.T) {
	g := goldenGraph(t)
	push, err := baseline.NewPush(2048, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), push,
		regcast.WithSeed(7),
		regcast.WithDialStrategy(regcast.DialQuasirandom),
		regcast.WithStopEarly())
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "push/quasirandom", res, golden{18, 18, 2048, 13175, 36864, 0xa4c0542c74c5a71a})
}

// recordingObserver captures the full callback stream.
type recordingObserver struct {
	rounds     []regcast.RoundStats
	informedAt map[int]int
}

func (r *recordingObserver) OnRound(rs regcast.RoundStats) { r.rounds = append(r.rounds, rs) }
func (r *recordingObserver) OnInformed(node, round int) {
	if r.informedAt == nil {
		r.informedAt = map[int]int{}
	}
	if _, dup := r.informedAt[node]; dup {
		panic("OnInformed fired twice for one node on a static topology")
	}
	r.informedAt[node] = round
}

// TestObserverStreamsResult checks, with the shard passes inline (the
// default "sequential" runner) and on a worker pool, that the
// streamed callbacks carry exactly the data of the retained trace: the
// OnRound stream equals Result.PerRound and the OnInformed stream equals
// Result.InformedAt.
func TestObserverStreamsResult(t *testing.T) {
	g, err := regcast.NewRegularGraph(512, 8, regcast.NewRand(3))
	if err != nil {
		t.Fatal(err)
	}
	four, err := core.New(512, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []regcast.RunnerOption
	}{
		{"sequential", nil},
		{"sharded", []regcast.RunnerOption{regcast.WithWorkers(4)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			obs := &recordingObserver{}
			scenario, err := regcast.NewScenario(regcast.Static(g), four,
				regcast.WithSeed(9),
				regcast.WithRecordRounds(),
				regcast.WithObserver(obs))
			if err != nil {
				t.Fatal(err)
			}
			res, err := regcast.Run(context.Background(), scenario, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(obs.rounds, res.PerRound) {
				t.Errorf("OnRound stream differs from Result.PerRound")
			}
			if len(obs.informedAt) != res.Informed {
				t.Errorf("OnInformed fired for %d nodes, result says %d informed", len(obs.informedAt), res.Informed)
			}
			for node, round := range obs.informedAt {
				if int(res.InformedAt[node]) != round {
					t.Errorf("OnInformed(%d, %d) disagrees with InformedAt[%d] = %d", node, round, node, res.InformedAt[node])
				}
			}
		})
	}
}

// TestScenarioValidation exercises the fail-fast construction errors,
// including the quasirandom/pull incompatibility that used to live only
// in comments.
func TestScenarioValidation(t *testing.T) {
	g, err := regcast.NewRegularGraph(64, 6, regcast.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	pushpull, err := baseline.NewPushPull(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := core.New(64, 6)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		topo    regcast.Topology
		proto   regcast.Protocol
		opts    []regcast.ScenarioOption
		wantErr string
	}{
		{"nil topology", nil, push, nil, "requires a Topology"},
		{"nil protocol", regcast.Static(g), nil, nil, "requires a Protocol"},
		{"source out of range", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithSource(64)}, "out of range"},
		{"bad failure prob", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithChannelFailure(1.5)}, "out of [0,1]"},
		{"bad loss prob", regcast.Static(g), push,
			[]regcast.ScenarioOption{regcast.WithMessageLoss(-0.1)}, "out of [0,1]"},
		{"quasirandom with pulling protocol", regcast.Static(g), pushpull,
			[]regcast.ScenarioOption{regcast.WithDialStrategy(regcast.DialQuasirandom)}, "push-only"},
		{"quasirandom with non-PullFree protocol", regcast.Static(g), four,
			[]regcast.ScenarioOption{regcast.WithDialStrategy(regcast.DialQuasirandom)}, "push-only"},
		{"quasirandom with dial memory", regcast.Static(g), push,
			[]regcast.ScenarioOption{
				regcast.WithDialStrategy(regcast.DialQuasirandom),
				regcast.WithAvoidRecent(3),
			}, "incompatible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := regcast.NewScenario(tc.topo, tc.proto, tc.opts...)
			if err == nil {
				t.Fatal("NewScenario accepted an invalid scenario")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}

	// The valid quasirandom combination still works.
	if _, err := regcast.NewScenario(regcast.Static(g), push,
		regcast.WithDialStrategy(regcast.DialQuasirandom)); err != nil {
		t.Fatalf("push-only quasirandom scenario rejected: %v", err)
	}
}

// TestRunCancellation checks that a cancelled context stops a run at a
// round boundary and surfaces ctx.Err().
func TestRunCancellation(t *testing.T) {
	g, err := regcast.NewRegularGraph(512, 8, regcast.NewRand(2))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(512, 1)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), push, regcast.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, opts := range [][]regcast.RunnerOption{
		nil,
		{regcast.WithWorkers(2)},
	} {
		res, err := regcast.Run(ctx, scenario, opts...)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run with cancelled ctx returned %v, want context.Canceled", err)
		}
		if res.Rounds >= push.Horizon() {
			t.Fatalf("cancelled run still executed all %d rounds", res.Rounds)
		}
	}
}

// TestRunnerRejectsInvalidCombos checks the engine-compatibility errors.
func TestRunnerRejectsInvalidCombos(t *testing.T) {
	g, err := regcast.NewRegularGraph(64, 4, regcast.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	push, err := baseline.NewPush(64, 1)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := regcast.NewScenario(regcast.Static(g), push, regcast.WithMessageLoss(0.5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), lossy,
		regcast.WithEngine(regcast.EngineGossipTransport)); err == nil {
		t.Error("transport engine accepted simulated message loss")
	}
	memory, err := regcast.NewScenario(regcast.Static(g), push, regcast.WithAvoidRecent(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), memory,
		regcast.WithEngine(regcast.EngineDaemonTransport)); err == nil {
		t.Error("daemon engine accepted dial memory")
	}
	if _, err := regcast.Run(context.Background(), regcast.Scenario{}); err == nil {
		t.Error("zero-value Scenario accepted")
	}
}
