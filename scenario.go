package regcast

import (
	"fmt"
)

// Scenario is one fully described broadcast: a topology, a protocol
// schedule, a fault model, and the observation hooks. Build it with
// NewScenario (around a concrete Topology instance) or NewScenarioSpec
// (around a declarative TopologySpec); the zero value is not runnable. A
// Scenario is engine-agnostic — the Runner decides how it executes.
//
// Internally a Scenario always holds a TopologySpec; NewScenario wraps
// its instance as a constant spec (FixedTopology), which is why the two
// constructors behave identically under a single Run. They differ under
// replication: a Batch re-Builds a spec scenario's topology per
// replication (so churning topologies replicate safely and per-run
// graphs need no builder callback), while a constant-spec scenario
// shares its one instance across replications.
type Scenario struct {
	spec  TopologySpec
	topo  Topology // the instance: set for constant specs, else materialised per run
	proto Protocol

	source      int
	seed        uint64
	seedSet     bool // WithSeed was applied (vs. the default seed 1)
	rng         *Rand
	dial        DialStrategy
	avoidRecent int

	channelFailure  float64
	messageLoss     float64
	geometricFaults bool

	stopEarly    bool
	recordRounds bool
	trackEdgeUse bool

	observers []Observer
}

// anyScenario marks Scenario as a member of the sealed AnyScenario
// union accepted by Runner.Run.
func (Scenario) anyScenario() {}

// ScenarioOption customises a Scenario under construction.
type ScenarioOption func(*Scenario)

// WithSource sets the node that creates the message in round 0 (default 0).
func WithSource(v int) ScenarioOption { return func(s *Scenario) { s.source = v } }

// WithSeed seeds the run's randomness (default 1). Every Run of the same
// Scenario and engine reproduces the same trace.
func WithSeed(seed uint64) ScenarioOption {
	return func(s *Scenario) { s.seed, s.seedSet = seed, true }
}

// WithRNG drives the run from an existing stream instead of a fresh seed —
// the master.Split() idiom of programs that also generate their topology
// from the master seed. The stream advances across runs and is not
// synchronised, so a WithRNG scenario must not be Run concurrently with
// itself and repeated Runs differ; use WithSeed for repeatable traces and
// for scenarios shared between goroutines.
func WithRNG(rng *Rand) ScenarioOption { return func(s *Scenario) { s.rng = rng } }

// WithDialStrategy selects the neighbour-selection discipline (default
// DialUniform). DialQuasirandom requires a push-only (PullFree) protocol
// and is incompatible with WithAvoidRecent; NewScenario rejects both
// combinations.
func WithDialStrategy(d DialStrategy) ScenarioOption { return func(s *Scenario) { s.dial = d } }

// WithAvoidRecent enables the sequentialised model of the paper's footnote
// 2: one dial per round, excluding the partners dialled in the last r
// rounds.
func WithAvoidRecent(r int) ScenarioOption { return func(s *Scenario) { s.avoidRecent = r } }

// WithChannelFailure sets the probability that a dialled channel fails to
// establish.
func WithChannelFailure(p float64) ScenarioOption { return func(s *Scenario) { s.channelFailure = p } }

// WithMessageLoss sets the probability that an individual transmission is
// lost in transit (lost transmissions still count as transmissions).
func WithMessageLoss(p float64) ScenarioOption { return func(s *Scenario) { s.messageLoss = p } }

// WithGeometricFaults switches the simulation engines to the
// randomness-efficient fault sampler: instead of one Bernoulli draw per
// channel-failure/message-loss decision, each PRNG stream draws
// Geometric(p) skip counters — one draw per fault event. The fault
// processes are distribution-identical and every determinism contract
// still holds (same seed => same trace, worker-count independence), but
// the stream is consumed in a different order, so traces are NOT
// comparable with the default Bernoulli mode — that is why this is an
// explicit opt-in. Simulation engine only.
func WithGeometricFaults() ScenarioOption { return func(s *Scenario) { s.geometricFaults = true } }

// WithStopEarly stops the run as soon as every alive node is informed,
// instead of measuring the full schedule's transmission cost.
func WithStopEarly() ScenarioOption { return func(s *Scenario) { s.stopEarly = true } }

// WithRecordRounds retains per-round metrics in Result.PerRound. Prefer
// WithObserver for long runs: observers consume the same RoundStats online
// without the O(rounds) retention.
func WithRecordRounds() ScenarioOption { return func(s *Scenario) { s.recordRounds = true } }

// WithTrackEdgeUse enables the unused-edge census of the paper's Lemma 4
// (RoundStats.UnusedEdgeNodes). Implies WithRecordRounds requirements:
// simulation engines only, static topology.
func WithTrackEdgeUse() ScenarioOption { return func(s *Scenario) { s.trackEdgeUse = true } }

// WithObserver streams per-round metrics to obs during the run. Repeating
// the option registers several observers; they are invoked in registration
// order, from the engine's coordinating goroutine only.
func WithObserver(obs Observer) ScenarioOption {
	return func(s *Scenario) { s.observers = append(s.observers, obs) }
}

// NewScenario validates and assembles a broadcast scenario on the given
// topology instance and protocol schedule. The instance is held as a
// constant spec (FixedTopology): every run — and every replication of a
// Batch — executes on this one topology.
func NewScenario(topo Topology, proto Protocol, opts ...ScenarioOption) (Scenario, error) {
	if topo == nil {
		return Scenario{}, fmt.Errorf("regcast: scenario requires a Topology")
	}
	return assemble(Scenario{spec: FixedTopology(topo), topo: topo, proto: proto, seed: 1}, opts)
}

// NewScenarioSpec validates and assembles a broadcast scenario on a
// declarative topology spec. The topology is built when the scenario
// runs: once per Runner.Run (from the scenario's own stream), or once per
// replication of a Batch (from the replication's derived stream) — which
// is what lets churning topologies such as OverlaySpec replicate without
// sharing state, appear in sweep grids, and randomise per-run graphs
// without a Batch.New builder. Topology-dependent validation (source
// range and liveness) necessarily happens at build time.
func NewScenarioSpec(spec TopologySpec, proto Protocol, opts ...ScenarioOption) (Scenario, error) {
	if spec == nil {
		return Scenario{}, fmt.Errorf("regcast: scenario requires a TopologySpec")
	}
	s := Scenario{spec: spec, proto: proto, seed: 1}
	// A constant spec is unwrapped eagerly, making
	// NewScenarioSpec(FixedTopology(t), ...) exactly equivalent to
	// NewScenario(t, ...): instance-dependent validation runs at
	// construction, and the batch layer's shared-instance rules (e.g. the
	// dynamic-Stepper rejection) see the instance.
	if fs, ok := spec.(fixedSpec); ok {
		s.topo = fs.topo
		if s.topo == nil {
			return Scenario{}, fmt.Errorf("regcast: scenario requires a Topology")
		}
	}
	return assemble(s, opts)
}

// assemble applies the options and runs construction-time validation.
func assemble(s Scenario, opts []ScenarioOption) (Scenario, error) {
	for _, opt := range opts {
		opt(&s)
	}
	if err := s.validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// validate checks every constraint that does not need a topology
// instance, plus the instance-dependent ones (validateTopo) when the
// instance is already known — so misconfiguration fails at construction
// time with a descriptive error rather than deep in an engine. Spec
// scenarios re-run validateTopo after each materialisation.
func (s *Scenario) validate() error {
	if s.spec == nil {
		return fmt.Errorf("regcast: scenario requires a Topology")
	}
	if s.proto == nil {
		return fmt.Errorf("regcast: scenario requires a Protocol")
	}
	if s.topo != nil {
		if err := s.validateTopo(); err != nil {
			return err
		}
	} else if s.source < 0 {
		return fmt.Errorf("regcast: source %d < 0", s.source)
	}
	if s.channelFailure < 0 || s.channelFailure > 1 {
		return fmt.Errorf("regcast: channel failure probability %v out of [0,1]", s.channelFailure)
	}
	if s.messageLoss < 0 || s.messageLoss > 1 {
		return fmt.Errorf("regcast: message loss probability %v out of [0,1]", s.messageLoss)
	}
	if s.avoidRecent < 0 {
		return fmt.Errorf("regcast: avoid-recent memory %d < 0", s.avoidRecent)
	}
	if s.dial != DialUniform && s.dial != DialQuasirandom {
		return fmt.Errorf("regcast: unknown dial strategy %d", int(s.dial))
	}
	if s.dial == DialQuasirandom {
		// The quasirandom model defines cursor advancement for dialling
		// (pushing) nodes only; a pull round would advance the cursors of
		// uninformed nodes too, which the model leaves undefined. Fail fast
		// instead of simulating something the model does not describe.
		if s.avoidRecent > 0 {
			return fmt.Errorf("regcast: DialQuasirandom is incompatible with WithAvoidRecent: " +
				"the quasirandom cursor replaces dial memory")
		}
		if pf, ok := s.proto.(PullFree); !ok || !pf.NeverPulls() {
			return fmt.Errorf("regcast: DialQuasirandom requires a push-only protocol "+
				"(one implementing PullFree with NeverPulls() == true); %q may pull, and pull rounds "+
				"are undefined in the quasirandom model", s.proto.Name())
		}
	}
	return nil
}

// validateTopo checks the constraints that need a topology instance.
func (s *Scenario) validateTopo() error {
	n := s.topo.NumNodes()
	if s.source < 0 || s.source >= n {
		return fmt.Errorf("regcast: source %d out of range [0,%d)", s.source, n)
	}
	if !s.topo.Alive(s.source) {
		return fmt.Errorf("regcast: source %d is not alive", s.source)
	}
	return nil
}

// materialize builds a spec scenario's topology for replication rep from
// rng and returns the runnable copy: the built instance installed, the
// same stream carried forward for the run itself, and the instance-
// dependent validation re-run. Constant-spec scenarios (topo already
// set) are returned unchanged.
func (s Scenario) materialize(rep int, rng *Rand) (Scenario, error) {
	if s.topo != nil {
		return s, nil
	}
	topo, err := s.spec.Build(rep, rng)
	if err != nil {
		return Scenario{}, err
	}
	if topo == nil {
		return Scenario{}, fmt.Errorf("regcast: TopologySpec built a nil topology")
	}
	s.topo = topo
	s.rng = rng
	if err := s.validateTopo(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// runRNG returns the stream the run draws from: the explicit WithRNG
// stream, or a fresh seed-derived one.
func (s *Scenario) runRNG() *Rand {
	if s.rng != nil {
		return s.rng
	}
	return NewRand(s.seed)
}

// runSeed returns a uint64 seed for engines that derive their own streams
// (the transport engines).
func (s *Scenario) runSeed() uint64 {
	if s.rng != nil {
		return s.rng.Uint64()
	}
	return s.seed
}

// observer returns the fan-out observer for the run (nil when none are
// registered, which keeps the engines' nil-observer fast path).
func (s *Scenario) observer() Observer {
	switch len(s.observers) {
	case 0:
		return nil
	case 1:
		return s.observers[0]
	default:
		return multiObserver(s.observers)
	}
}

// dynamic reports whether the topology churns between rounds.
func (s *Scenario) dynamic() bool {
	_, ok := s.topo.(Stepper)
	return ok
}
