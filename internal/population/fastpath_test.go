package population

import (
	"testing"

	"regcast/internal/xrand"
)

// fastpathCases is the fast≡reference bit-identity matrix: every
// built-in protocol from an adversarial start. Herman exercises the
// ring-table path; leader election the batch-kernel path (25 state
// bits — no table, no counts); approximate majority the full
// table+counts path.
func fastpathCases(t *testing.T) []struct {
	name string
	cfg  Config
} {
	t.Helper()
	le, err := NewLeaderElection(3000)
	if err != nil {
		t.Fatal(err)
	}
	hm, err := NewHerman(301)
	if err != nil {
		t.Fatal(err)
	}
	hmInit, err := InitTokens(301, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		cfg  Config
	}{
		{"leader/all-leaders", Config{N: 3000, Pair: le, Init: InitAllLeaders, MaxSteps: 40}},
		{"leader/poisoned", Config{N: 3000, Pair: le, Init: InitPoisoned, MaxSteps: 40}},
		{"herman/3-tokens", Config{N: 301, Ring: hm, Init: hmInit, MaxSteps: 60}},
		{"majority/close-race", Config{N: 3000, Pair: NewApproxMajority(), Init: InitMajority(0.51), MaxSteps: 40}},
		{"majority/blank-heavy", Config{N: 3000, Pair: NewApproxMajority(), Init: func(i, n int, coin uint64) State {
			if i == 0 {
				return MajX
			}
			if i == 1 {
				return MajY
			}
			return MajBlank
		}, MaxSteps: 40}},
	}
}

// plainProtocols returns cfg with its protocol wrapped so that it
// declares no extension (no table, counts or batch kernel): the engine
// then applies per-pair Transition calls (per-agent ring calls) and
// scans the configuration with Measure — the reference every compiled
// component is pinned against.
func plainProtocols(cfg Config) Config {
	if cfg.Pair != nil {
		cfg.Pair = struct{ PairProtocol }{cfg.Pair}
	}
	if cfg.Ring != nil {
		cfg.Ring = struct{ RingProtocol }{cfg.Ring}
	}
	return cfg
}

// TestFastPathMatchesReference pins the compiled components: for every
// protocol, every worker count, and a non-default shard count, the
// default run's full trace (per-step stats, final configuration, result)
// is bit-identical to the same run on the plain-protocol wrapper.
func TestFastPathMatchesReference(t *testing.T) {
	for _, tc := range fastpathCases(t) {
		for _, workers := range []int{0, 1, 4} {
			for _, shards := range []int{0, 7} {
				cfg := tc.cfg
				cfg.Workers = workers
				cfg.Shards = shards

				ref := plainProtocols(cfg)
				ref.RNG = xrand.New(99)
				refHash, _ := traceHash(t, ref)

				fast := cfg
				fast.RNG = xrand.New(99)
				fastHash, _ := traceHash(t, fast)

				if fastHash != refHash {
					t.Errorf("%s workers=%d shards=%d: fast trace %x != reference %x",
						tc.name, workers, shards, fastHash, refHash)
				}
			}
		}
	}
}

// TestFastPathMatchesReferenceWithInteractionObserver covers the
// observed shape: a per-interaction observer keeps the observed apply
// loop, and its event stream must match the plain-protocol run's.
func TestFastPathMatchesReferenceWithInteractionObserver(t *testing.T) {
	run := func(plain bool) ([]popEvent, uint64) {
		le, err := NewLeaderElection(500)
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingObserver{}
		cfg := Config{N: 500, Pair: le, Init: InitAllLeaders, MaxSteps: 10,
			RNG: xrand.New(5), Observer: rec}
		if plain {
			cfg = plainProtocols(cfg)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := uint64(1469598103934665603)
		for _, s := range res.Final {
			h = (h ^ uint64(s)) * 1099511628211
		}
		return rec.events, h
	}
	fastEv, fastH := run(false)
	refEv, refH := run(true)
	if fastH != refH {
		t.Fatalf("final configuration diverged: %x != %x", fastH, refH)
	}
	if len(fastEv) != len(refEv) {
		t.Fatalf("interaction count diverged: %d != %d", len(fastEv), len(refEv))
	}
	for i := range fastEv {
		if fastEv[i] != refEv[i] {
			t.Fatalf("interaction %d diverged: %+v != %+v", i, fastEv[i], refEv[i])
		}
	}
}

type popEvent struct{ step, a, b int }

type recordingObserver struct {
	events []popEvent
}

func (r *recordingObserver) OnSuperStep(SuperStepStats) {}
func (r *recordingObserver) OnInteraction(step, a, b int) {
	r.events = append(r.events, popEvent{step, a, b})
}

// TestCountsMatchesScan cross-checks the incremental occupancy vector:
// after every super-step of a fast-path majority run, the engine's
// counts-derived measure must equal a fresh O(n) scan of the live
// configuration, and at the end the counts vector itself must equal
// the final configuration's histogram.
func TestCountsMatchesScan(t *testing.T) {
	p := NewApproxMajority()
	e, err := newEngine(Config{N: 2000, Pair: p, Init: InitMajority(0.52),
		MaxSteps: 50, RNG: xrand.New(17)})
	if err != nil {
		t.Fatal(err)
	}
	if e.counts == nil || e.table == nil {
		t.Fatalf("majority run should engage table+counts (table=%v counts=%v)",
			e.table != nil, e.counts != nil)
	}
	for step := 1; step <= 50; step++ {
		e.pairStep(step)
		if got, want := e.measure(), p.Measure(e.states); got != want {
			t.Fatalf("step %d: counts measure %d != scan measure %d", step, got, want)
		}
	}
	var hist [3]int64
	for _, s := range e.states {
		hist[s]++
	}
	for st, c := range e.counts {
		if c != hist[st] {
			t.Fatalf("counts[%d] = %d, configuration histogram has %d", st, c, hist[st])
		}
	}
}

// TestLeaderApplyPairsMatchesTransition pins the hand-fused leader
// kernel against per-pair Transition on random configurations,
// including timer-expired states that arm the promotion lane.
func TestLeaderApplyPairsMatchesTransition(t *testing.T) {
	le, err := NewLeaderElection(64)
	if err != nil {
		t.Fatal(err)
	}
	r := xrand.New(23)
	for trial := 0; trial < 200; trial++ {
		states := make([]State, 64)
		for i := range states {
			// Random role/value, timer biased to the promotion region.
			tim := State(r.Uint64()) & leTimMask
			if trial%2 == 1 {
				tim = leTimMask // expired: promotion lane armed
			}
			states[i] = leState(r.Uint64()&1 == 1, State(r.Uint64())&leValMask, tim)
		}
		pairs := make([]PairDraw, 32)
		r.FillPairDraws(pairs, 64)

		want := append([]State(nil), states...)
		wantChanged := 0
		for _, d := range pairs {
			na, nb := le.Transition(want[d.A], want[d.B], d.Coin)
			if na != want[d.A] {
				wantChanged++
			}
			if nb != want[d.B] {
				wantChanged++
			}
			want[d.A], want[d.B] = na, nb
		}

		gotChanged := le.ApplyPairs(states, pairs)
		if gotChanged != wantChanged {
			t.Fatalf("trial %d: changed %d != %d", trial, gotChanged, wantChanged)
		}
		for i := range states {
			if states[i] != want[i] {
				t.Fatalf("trial %d: agent %d: %#x != %#x", trial, i, states[i], want[i])
			}
		}
	}
}

// TestTableCompilerDeclinesMisdeclaredProtocols: a protocol whose
// Transition escapes its declared StateBound must fall back to the
// reference component, not index out of range.
func TestTableCompilerDeclinesMisdeclaredProtocols(t *testing.T) {
	e, err := newEngine(Config{N: 100, Pair: escapingProto{}, MaxSteps: 5, RNG: xrand.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	if e.table != nil {
		t.Fatal("table compiled for a protocol whose Transition escapes StateBound")
	}
	if _, err := Run(Config{N: 100, Pair: escapingProto{}, MaxSteps: 5, RNG: xrand.New(3)}); err != nil {
		t.Fatal(err)
	}
}

// escapingProto declares 2 states but transitions to state 2.
type escapingProto struct{}

func (escapingProto) Name() string { return "escaping" }
func (escapingProto) Transition(a, b State, coin uint64) (State, State) {
	return 2, b
}
func (escapingProto) Measure(cfg []State) int { return 1 }
func (escapingProto) StateBound() int         { return 2 }
func (escapingProto) CoinBits() int           { return 0 }

// TestPairStepSteadyStateAllocFree guards the 0-alloc steady state:
// with the quota buffers preallocated at construction, super-steps
// allocate nothing, on the compiled table and on the plain-protocol
// wrapper alike.
func TestPairStepSteadyStateAllocFree(t *testing.T) {
	for _, plain := range []bool{false, true} {
		cfg := Config{N: 5000, Pair: NewApproxMajority(),
			Init: InitMajority(0.6), MaxSteps: 100, RNG: xrand.New(7)}
		if plain {
			cfg = plainProtocols(cfg)
		}
		e, err := newEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		step := 0
		allocs := testing.AllocsPerRun(20, func() {
			step++
			e.pairStep(step)
		})
		if allocs != 0 {
			t.Errorf("plain=%v: %v allocs per super-step, want 0", plain, allocs)
		}
	}
}

// TestApproxMajorityConverges sanity-checks the new protocol's
// dynamics: a 60/40 race must reach consensus on X.
func TestApproxMajorityConverges(t *testing.T) {
	res, err := Run(Config{N: 2000, Pair: NewApproxMajority(),
		Init: InitMajority(0.6), RNG: xrand.New(41)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("no consensus after %d steps (measure %d)", res.Steps, res.Measure)
	}
	for i, s := range res.Final {
		if s != MajX {
			t.Fatalf("agent %d ended %d, want majority opinion X", i, s)
		}
	}
}
