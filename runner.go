package regcast

import (
	"context"
	"fmt"
	"time"

	"regcast/internal/phonecall"
	"regcast/internal/transport"
)

// Engine selects how a Runner executes a Scenario.
type Engine int

const (
	// EngineSharded is the phone-call simulator and the zero value: nodes
	// partitioned into shards with independent PRNG streams, so a trace
	// depends on the seed and the shard count and never on the worker
	// count (WithWorkers).
	EngineSharded Engine = iota
	// EngineGossipTransport executes the scenario as anti-entropy gossip
	// over in-memory channel mailboxes (internal/transport): each tick,
	// every node contacts Choices() random neighbours with push packets
	// and pull requests. Deployment-shaped, so per-tick metrics are
	// measured (not simulated) and wall-clock dependent.
	EngineGossipTransport
	// EngineDaemonTransport is the resilient gossip daemon over real
	// loopback TCP: persistent per-peer connections behind a backoff dial
	// scheduler, bounded per-peer send queues with drop accounting, and
	// expiring-bucket rumour dedup. Result.Transport carries its health
	// snapshot, and WithTransportFaults injects reproducible chaos in
	// front of it.
	EngineDaemonTransport
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineSharded:
		return "sharded"
	case EngineGossipTransport:
		return "gossip-transport"
	case EngineDaemonTransport:
		return "daemon-transport"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Runner executes Scenarios on a chosen engine. The zero value runs the
// sharded simulator with its shard passes inline; construct variants
// with NewRunner. Runners are stateless values — one Runner may run many
// Scenarios, concurrently if desired (a Scenario built with WithRNG is
// the exception: its stream is unsynchronised, so never run that one
// scenario concurrently with itself).
type Runner struct {
	engine     Engine
	workers    int
	shards     int
	mailbox    int
	noFastPath bool
	// noPopFastPath disables only the population engine's fast path;
	// noFastPath disables every engine's.
	noPopFastPath bool
	faults        *transport.FaultConfig
}

// RunnerOption customises a Runner.
type RunnerOption func(*Runner)

// WithEngine selects the execution engine explicitly.
func WithEngine(e Engine) RunnerOption { return func(r *Runner) { r.engine = e } }

// WithWorkers sets the number of goroutines that run the simulators'
// per-step shard passes, mirroring the commands' -workers flag: 0 and 1
// run them inline, WorkersAuto (-1) uses GOMAXPROCS and n > 1 uses n. The
// worker count never changes a trace, only the wall-clock time.
func WithWorkers(n int) RunnerOption { return func(r *Runner) { r.workers = n } }

// WithShards fixes the simulators' partition count (default
// DefaultShards). The shard count — not the worker count — determines the
// trace, so pin it when comparing runs.
func WithShards(n int) RunnerOption { return func(r *Runner) { r.shards = n } }

// WithMailbox sets the per-node mailbox capacity of the transport engines
// (default 1024 packets).
func WithMailbox(n int) RunnerOption { return func(r *Runner) { r.mailbox = n } }

// WithoutFastPath forces the simulation engines onto the reference
// interface-dispatch path even on a frozen Static topology. The CSR fast
// path is bit-identical to the reference path (golden tests pin this), so
// the switch exists for cross-validation and benchmarking, not as a
// correctness escape hatch.
func WithoutFastPath() RunnerOption { return func(r *Runner) { r.noFastPath = true } }

// WithoutPopulationFastPath forces population scenarios onto the
// reference interface-dispatch path (per-pair Transition calls, O(n)
// measure scans, no compiled tables) while leaving the phone-call
// engines' fast path alone. Like WithoutFastPath, it exists for
// cross-validation and benchmarking — the population fast path is
// pinned bit-identical to the reference path, so results never depend
// on it.
func WithoutPopulationFastPath() RunnerOption {
	return func(r *Runner) { r.noPopFastPath = true }
}

// NewRunner builds a Runner; with no options it runs EngineSharded with
// one inline worker.
func NewRunner(opts ...RunnerOption) Runner {
	var r Runner
	for _, opt := range opts {
		opt(&r)
	}
	return r
}

// Result summarises a completed run, independent of the engine that
// produced it.
type Result struct {
	// Engine records which engine executed the run.
	Engine Engine
	// Rounds is the number of rounds (transport engines: ticks) executed.
	Rounds int
	// Informed is the number of informed alive nodes at the end.
	Informed int
	// AliveNodes is the number of alive nodes at the end.
	AliveNodes int
	// AllInformed reports whether every alive node was informed at the end.
	AllInformed bool
	// FirstAllInformed is the earliest round after which every alive node
	// was informed, or -1 if that never happened.
	FirstAllInformed int
	// Transmissions counts message transmissions (transport engines:
	// packets handed to the transport).
	Transmissions int64
	// ChannelsDialed counts the channel dials the model mandates.
	ChannelsDialed int64
	// InformedAt[v] is the round in which v first received the message
	// (Uninformed if never).
	InformedAt []int32
	// PerRound holds per-round metrics when the scenario was built with
	// WithRecordRounds.
	PerRound []RoundStats
	// Transport is the transport engine's health snapshot (nil for the
	// simulation engines): dials, retries, drop accounting, dedup hits,
	// per-peer state, and — under WithTransportFaults — the fault ledger.
	Transport *TransportHealth
}

// AnyScenario is the sealed union of the scenario kinds a Runner can
// execute: Scenario (phone-call broadcast) and PopulationScenario
// (pairwise-interaction protocols), by value or pointer. It exists so
// Runner.Run is the single entry point for every workload
// (Runner.RunPopulation adds the population-specific result fields). The
// interface is sealed (the marker method is unexported); external types
// cannot implement it, which is what lets Run's type switch be
// exhaustive.
type AnyScenario interface {
	anyScenario()
}

// Run executes the scenario with default runner options — EngineSharded
// with one inline worker unless opts say otherwise.
func Run(ctx context.Context, s AnyScenario, opts ...RunnerOption) (Result, error) {
	return NewRunner(opts...).Run(ctx, s)
}

// Run executes one scenario of any kind. Cancelling ctx stops the run at
// the next round boundary and returns ctx.Err() alongside the partial
// result accumulated so far.
//
// A PopulationScenario's PopulationResult is folded into the shared
// Result shape with the same fixed mapping PopulationBatch uses: Rounds
// is the super-steps executed, ChannelsDialed the total interactions
// (the work analogue of the dial budget), AllInformed the converged
// flag; on convergence Informed is N, FirstAllInformed the convergence
// super-step and Transmissions the interactions to convergence,
// otherwise Informed is 0, FirstAllInformed -1 and Transmissions the
// total (budget-censored) interactions. Programs that need the
// population-specific fields (Measure, final states) use
// Runner.RunPopulation.
func (r Runner) Run(ctx context.Context, s AnyScenario) (Result, error) {
	switch sc := s.(type) {
	case Scenario:
		return r.runScenario(ctx, sc)
	case *Scenario:
		return r.runScenario(ctx, *sc)
	case PopulationScenario:
		pres, err := r.RunPopulation(ctx, sc)
		if err != nil {
			return Result{}, err
		}
		return populationResult(r.engine, sc.N, pres), nil
	case *PopulationScenario:
		pres, err := r.RunPopulation(ctx, *sc)
		if err != nil {
			return Result{}, err
		}
		return populationResult(r.engine, sc.N, pres), nil
	case nil:
		return Result{}, fmt.Errorf("regcast: nil scenario")
	default:
		// Unreachable while AnyScenario stays sealed.
		return Result{}, fmt.Errorf("regcast: unsupported scenario kind %T", s)
	}
}

// populationResult maps a PopulationResult onto the engine-independent
// Result shape (see Runner.Run for the field-by-field contract).
func populationResult(engine Engine, n int, pres PopulationResult) Result {
	res := Result{
		Engine:           engine,
		Rounds:           pres.Steps,
		AliveNodes:       n,
		AllInformed:      pres.Converged,
		FirstAllInformed: -1,
		Transmissions:    pres.Interactions,
		ChannelsDialed:   pres.Interactions,
	}
	if pres.Converged {
		res.Informed = n
		res.FirstAllInformed = pres.ConvergedAt
		res.Transmissions = pres.ConvergedInteractions
	}
	return res
}

// runScenario executes one phone-call scenario.
func (r Runner) runScenario(ctx context.Context, s Scenario) (Result, error) {
	if err := s.validate(); err != nil {
		return Result{}, err
	}
	if r.workers < WorkersAuto {
		return Result{}, fmt.Errorf("regcast: workers %d invalid (use WorkersAuto, 0 or a positive count)", r.workers)
	}
	// A spec scenario builds its topology now, from its own stream (the
	// WithRNG stream or the seed-derived one), and the run continues on
	// that same stream — the master.Split() idiom with the splits done by
	// the spec. Batch replications bypass this by materialising per
	// replication themselves.
	if s.topo == nil {
		var err error
		if s, err = s.materialize(0, s.runRNG()); err != nil {
			return Result{}, err
		}
	}
	switch r.engine {
	case EngineSharded:
		if r.faults != nil {
			return Result{}, fmt.Errorf("regcast: WithTransportFaults requires a transport engine, not %v", r.engine)
		}
		return r.runSimulation(ctx, s)
	case EngineGossipTransport, EngineDaemonTransport:
		return r.runTransport(ctx, s)
	default:
		return Result{}, fmt.Errorf("regcast: unknown engine %v", r.engine)
	}
}

// haltFor adapts ctx cancellation to the engines' per-round Halt poll.
func haltFor(ctx context.Context) func() bool {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// ctxErr reports the cancellation error to attach to a partial result.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// runSimulation drives the phone-call engine.
func (r Runner) runSimulation(ctx context.Context, s Scenario) (Result, error) {
	cfg := phonecall.Config{
		Topology:           s.topo,
		Protocol:           s.proto,
		Source:             s.source,
		RNG:                s.runRNG(),
		ChannelFailureProb: s.channelFailure,
		MessageLossProb:    s.messageLoss,
		GeometricFaults:    s.geometricFaults,
		DialStrategy:       s.dial,
		AvoidRecent:        s.avoidRecent,
		RecordRounds:       s.recordRounds,
		TrackEdgeUse:       s.trackEdgeUse,
		StopEarly:          s.stopEarly,
		Workers:            r.workers,
		Shards:             r.shards,
		DisableFastPath:    r.noFastPath,
		Observer:           s.observer(),
		Halt:               haltFor(ctx),
	}
	res, err := phonecall.Run(cfg)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Engine:           r.engine,
		Rounds:           res.Rounds,
		Informed:         res.Informed,
		AliveNodes:       res.AliveNodes,
		AllInformed:      res.AllInformed,
		FirstAllInformed: res.FirstAllInformed,
		Transmissions:    res.Transmissions,
		ChannelsDialed:   res.ChannelsDialed,
		InformedAt:       res.InformedAt,
		PerRound:         res.PerRound,
	}, ctxErr(ctx)
}

// runTransport executes the scenario as anti-entropy gossip over a real
// transport. The protocol contributes its fan-out (Choices) and tick
// budget (Horizon); the push/pull schedule itself is the transport
// cluster's continuous anti-entropy, so traces are wall-clock dependent
// and not reproducible from the seed alone.
func (r Runner) runTransport(ctx context.Context, s Scenario) (Result, error) {
	st, ok := s.topo.(phonecall.Static)
	if !ok {
		return Result{}, fmt.Errorf("regcast: the %v engine requires a Static topology", r.engine)
	}
	if s.dial != DialUniform || s.avoidRecent > 0 || s.trackEdgeUse {
		return Result{}, fmt.Errorf("regcast: the %v engine supports only DialUniform without dial memory or edge tracking", r.engine)
	}
	if s.channelFailure != 0 || s.messageLoss != 0 {
		return Result{}, fmt.Errorf("regcast: the %v engine does not simulate channel failure or message loss", r.engine)
	}
	g := st.G
	n := g.NumNodes()
	if r.faults != nil {
		if err := checkFaultNodes(*r.faults, n); err != nil {
			return Result{}, err
		}
	}
	mailbox := r.mailbox
	if mailbox == 0 {
		mailbox = 1024
	}

	var (
		tr  transport.Transport
		err error
	)
	switch r.engine {
	case EngineDaemonTransport:
		tr, err = transport.NewDaemon(transport.DaemonConfig{
			Nodes:   n,
			Mailbox: mailbox,
			Seed:    s.runSeed(),
		})
	default:
		tr, err = transport.NewInMem(n, mailbox)
	}
	if err != nil {
		return Result{}, err
	}
	var plan *transport.FaultPlan
	if r.faults != nil {
		plan, err = transport.NewFaultPlan(tr, *r.faults)
		if err != nil {
			tr.Close()
			return Result{}, err
		}
		tr = plan
	}
	cluster, err := transport.NewCluster(g, tr, s.proto.Choices(), s.runSeed())
	if err != nil {
		tr.Close()
		return Result{}, err
	}
	defer cluster.Close()

	const rumorID = "regcast/scenario"
	if err := cluster.Insert(s.source, transport.Rumor{ID: rumorID, Payload: "scenario broadcast"}); err != nil {
		return Result{}, err
	}

	obs := s.observer()
	informedAt := make([]int32, n)
	for v := range informedAt {
		informedAt[v] = Uninformed
	}
	informedAt[s.source] = 0
	if obs != nil {
		obs.OnInformed(s.source, 0)
	}

	budget := phonecall.DialBudget(s.topo, s.proto.Choices())

	res := Result{Engine: r.engine, FirstAllInformed: -1, AliveNodes: n}
	informed := 1
	var lastSent int64
	halt := haltFor(ctx)
	for t := 1; t <= s.proto.Horizon(); t++ {
		if halt != nil && halt() {
			break
		}
		if plan != nil {
			// One tick = one fault epoch: partition and crash windows in
			// the plan are tick ranges.
			plan.AdvanceEpoch()
		}
		if err := cluster.Tick(); err != nil {
			return Result{}, err
		}
		waitQuiescent(cluster, rumorID)

		newly := 0
		for v := 0; v < n; v++ {
			if informedAt[v] == Uninformed && cluster.Node(v).Knows(rumorID) {
				informedAt[v] = int32(t)
				if obs != nil {
					obs.OnInformed(v, t)
				}
				newly++
			}
		}
		informed += newly
		sent := cluster.PacketsSent()
		rm := RoundStats{
			Round:         t,
			NewlyInformed: newly,
			Informed:      informed,
			Transmissions: sent - lastSent,
			ChannelsDial:  budget,
		}
		lastSent = sent
		if obs != nil {
			obs.OnRound(rm)
		}
		if s.recordRounds {
			res.PerRound = append(res.PerRound, rm)
		}
		res.Rounds = t
		res.ChannelsDialed += budget
		if informed == n {
			res.FirstAllInformed = t
			break // ticks cost wall-clock time; never run an empty tail
		}
	}
	res.Informed = informed
	res.AllInformed = informed == n
	res.Transmissions = cluster.PacketsSent()
	res.InformedAt = informedAt
	if hr, ok := tr.(transport.HealthReporter); ok {
		// Close first (idempotent; the deferred Close becomes a no-op) so
		// the snapshot is a quiescent, fully-accounted ledger.
		_ = cluster.Close()
		h := hr.Health()
		res.Transport = &h
	}
	return res, ctxErr(ctx)
}

// checkFaultNodes rejects crash and partition windows that name a node
// outside [0, n): the fault plan would accept them and never fire.
func checkFaultNodes(cfg FaultConfig, n int) error {
	for _, w := range cfg.Crashes {
		if w.Node < 0 || w.Node >= n {
			return fmt.Errorf("regcast: crash window names node %d, outside [0,%d)", w.Node, n)
		}
	}
	for _, w := range cfg.Partitions {
		for _, v := range w.A {
			if v < 0 || v >= n {
				return fmt.Errorf("regcast: partition window names node %d, outside [0,%d)", v, n)
			}
		}
	}
	return nil
}

// waitQuiescent lets a tick's packets drain: transports deliver
// asynchronously, so the spread count is only meaningful once it stops
// moving. Returns once (knowers, packets) is stable for two consecutive
// polls or the per-tick deadline passes.
func waitQuiescent(c *transport.Cluster, rumorID string) {
	deadline := time.Now().Add(time.Second)
	prevKnow, prevSent := -1, int64(-1)
	for time.Now().Before(deadline) {
		know := c.CountKnowing(rumorID)
		sent := c.PacketsSent()
		if know == prevKnow && sent == prevSent {
			return
		}
		prevKnow, prevSent = know, sent
		time.Sleep(2 * time.Millisecond)
	}
}
