// Package regcast reproduces "Efficient Randomised Broadcasting in Random
// Regular Networks with Applications in Peer-to-Peer Systems" (Berenbrink,
// Elsässer, Friedetzky; PODC 2008 / Distributed Computing 2016) as a Go
// library, and is itself the public API: programs describe a broadcast as
// a Scenario (topology + protocol + fault model, via functional options),
// execute it with a Runner that selects among three engines behind one
// Run(ctx, Scenario) call, and consume per-round metrics online through
// the streaming Observer interface instead of retaining full traces.
//
//	g, _ := regcast.NewRegularGraph(1<<14, 8, regcast.NewRand(1))
//	proto, _ := regcast.NewFourChoice(1<<14, 8) // the paper's schedule
//	scenario, _ := regcast.NewScenario(regcast.Static(g), proto,
//		regcast.WithSeed(42),
//		regcast.WithObserver(regcast.ObserverFuncs{
//			Round: func(rs regcast.RoundStats) { fmt.Println(rs.Round, rs.Informed) },
//		}))
//	res, _ := regcast.Run(ctx, scenario, regcast.WithWorkers(regcast.WorkersAuto))
//
// Engines: EngineSharded (the zero value; the phone-call simulator —
// per-shard PRNG streams, so results depend on the seed and the shard
// count and are bit-identical for every WithWorkers count),
// EngineGossipTransport (anti-entropy gossip over in-memory mailboxes)
// and EngineDaemonTransport (the resilient gossip daemon over real
// loopback sockets, with health metrics and seeded chaos;
// internal/transport).
// Scenario construction fails fast on model violations — e.g.
// DialQuasirandom with a protocol that may pull.
//
// Topologies come in two forms: a concrete instance (NewScenario) or a
// declarative TopologySpec (NewScenarioSpec; topology_spec.go) that
// builds the network at run time — RegularGraphSpec,
// ConfigurationModelSpec, GnpSpec, HypercubeSpec, TorusSpec, and
// OverlaySpec, the paper's churning p2p overlay. Spec scenarios build a
// fresh topology per Batch replication, so dynamic topologies replicate
// and sweep like static graphs, and overlay topologies keep the
// engines' zero-interface CSR fast path even under churn via
// epoch-stamped CSR views (see DESIGN.md).
//
// Above the engines sits the batch layer (batch.go, sweep.go,
// report.go): Batch runs R seed-derived replications of a Scenario on a
// worker pool of whole runs and aggregates them online (Replicate is
// the same pool for non-Scenario ensembles), Sweep crosses parameter
// axes into an ordered grid of Batches, and Report serialises the grid
// as versioned JSON/CSV — the format cmd/regcast-bench writes and CI
// uploads. Replication streams are precomputed in replication order and
// results folded in replication order, so batch aggregates are
// bit-identical for every ReplicationWorkers value; replication-level
// parallelism composes with the sharded engine's per-run workers.
//
// The phone-call rounds above are one Scheduler (SchedulerRounds); the
// facade also ships SchedulerInteractions, the population-protocol
// model, where time advances one uniformly random pairwise interaction
// at a time (internal/population): describe an ensemble of agents as a
// PopulationScenario (a PairProtocol such as NewLeaderElection, or a
// RingProtocol such as NewHermanRing) and execute it with
// Runner.RunPopulation; PopulationBatch folds convergence ensembles into the
// same BatchResult the broadcast batches produce, so Sweep (via
// BuildPopulation) and cmd/regcast-bench grid them unchanged. Both
// scheduler families run on the shared deterministic sharded
// super-step contract (internal/sched) — fixed shard count, per-shard
// split PRNG streams, shard-order merge — so traces are bit-identical
// for every worker count.
//
// The population engine auto-engages a compiled fast path that runs the
// bit-identical trace to its reference interpreter: protocols declaring
// a small state space (TablePairProtocol, RingTableProtocol) have their
// transition function compiled into a dense lookup table, protocols
// whose measure factors through state occupancy (CountsPairProtocol,
// e.g. NewApproxMajority) get an incrementally-maintained occupancy
// vector in place of the O(n) scan, and wide protocols can supply a
// fused batch kernel (BatchPairProtocol); pair draws are always batched
// into preallocated PairDraw buffers on the exact reference streams.
// WithoutPopulationFastPath (flag -pop-fastpath=false) forces the
// reference components for cross-validation and A/B benchmarks.
//
// Behind the facade: the four-choice phased broadcast protocols
// (internal/core), the random phone call simulator with its sharded
// round engine (internal/phonecall), random-regular-graph
// generation and analysis (internal/graph, internal/spectral), the
// strictly-oblivious lower-bound machinery (internal/oblivious), baseline
// gossip protocols (internal/baseline), a churning P2P overlay and a
// replicated database built on broadcast (internal/p2p), and the
// per-theorem experiment harness (internal/experiments) — every one of
// its replication ensembles routes through the batch layer, and its
// registry is re-exported by the public regcast/experiments package
// (the harness consumes this facade, so the root package cannot
// re-export it without a cycle).
//
// See README.md for a guided tour, DESIGN.md for the system inventory and
// experiment index, and EXPERIMENTS.md for paper-vs-measured results. The
// benchmarks in bench_test.go regenerate one experiment each and guard
// the nil-observer fast path at zero allocations per round.
package regcast
