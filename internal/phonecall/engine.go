package phonecall

import (
	"fmt"
	"math/bits"

	"regcast/internal/xrand"
)

// DialStrategy selects how a node picks the neighbours it dials.
type DialStrategy int

const (
	// DialUniform is the (modified) random phone call model: k distinct
	// neighbours chosen independently and uniformly every round.
	DialUniform DialStrategy = iota
	// DialQuasirandom is the quasirandom rumor-spreading model of Doerr,
	// Friedrich & Sauerwald (cited as [9] in the paper): each node starts
	// at a uniformly random position of its (fixed) neighbour list and
	// from then on dials successive list entries, k per round. Intended
	// for push-only schedules (a pull round would advance the cursors of
	// uninformed nodes too, which the quasirandom model does not define).
	DialQuasirandom
)

// String implements fmt.Stringer.
func (s DialStrategy) String() string {
	switch s {
	case DialUniform:
		return "uniform"
	case DialQuasirandom:
		return "quasirandom"
	default:
		return fmt.Sprintf("dialstrategy(%d)", int(s))
	}
}

// Config describes one broadcast simulation.
type Config struct {
	// Topology is the network; required.
	Topology Topology
	// Protocol is the broadcast schedule; required.
	Protocol Protocol
	// Source is the node that creates the message in round 0.
	Source int
	// RNG drives all randomness; required.
	RNG *xrand.Rand
	// ChannelFailureProb is the probability that a dialled channel fails to
	// establish (no communication in either direction over it this round).
	ChannelFailureProb float64
	// MessageLossProb is the probability that an individual transmission is
	// lost in transit. Lost transmissions still count as transmissions.
	MessageLossProb float64
	// DialStrategy selects the neighbour-selection discipline (default
	// DialUniform). DialQuasirandom is incompatible with AvoidRecent.
	DialStrategy DialStrategy
	// AvoidRecent, when > 0, enables the sequentialised model of footnote 2:
	// each node remembers the partners it dialled in the last AvoidRecent
	// rounds and excludes them from the current choice. It disables the
	// sender-only dial-sampling optimisation because memory must advance
	// every round for every node.
	AvoidRecent int
	// RecordRounds enables per-round metrics in the Result.
	RecordRounds bool
	// TrackEdgeUse enables the unused-edge census of Lemma 4: an edge
	// counts as used once a transmission crossed it in either direction,
	// and RoundMetrics.UnusedEdgeNodes records |U(t)|, the number of nodes
	// still incident to at least one unused edge. Requires RecordRounds
	// and a simple static topology (parallel edges would be conflated).
	TrackEdgeUse bool
	// StopEarly stops the run as soon as every alive node is informed.
	// Leave it false to measure the transmission cost of the full schedule
	// (the honest accounting used throughout EXPERIMENTS.md).
	StopEarly bool
	// Workers is the number of goroutines that run the per-round shard
	// passes (see parallel.go), capped at Shards. 0 and 1 run them inline
	// on the calling goroutine; WorkersAuto (-1) uses GOMAXPROCS. For a
	// fixed seed and shard count the results are bit-identical for every
	// worker count.
	Workers int
	// Shards is the number of node partitions (and independent PRNG
	// streams); 0 means DefaultShards. The shard count — not the worker
	// count — determines the trace, so keep it fixed when comparing runs.
	Shards int
	// Observer, when non-nil, receives streaming per-round callbacks (see
	// Observer). It never changes the trace: observers are called after all
	// of a round's randomness has been drawn.
	Observer Observer
	// Halt, when non-nil, is polled once at the end of every round; a true
	// return stops the run early with the partial result accumulated so
	// far. The facade uses it to honour context cancellation.
	Halt func() bool
}

// RoundMetrics captures the state of one simulated round.
type RoundMetrics struct {
	Round         int
	NewlyInformed int
	Informed      int
	Transmissions int64
	ChannelsDial  int64
	// UnusedEdgeNodes is |U(t)| when Config.TrackEdgeUse is set (else 0).
	UnusedEdgeNodes int
}

// Result summarises a completed run.
type Result struct {
	// Rounds is the number of rounds actually executed.
	Rounds int
	// Informed is the number of informed alive nodes when the run ended.
	Informed int
	// AliveNodes is the number of alive nodes when the run ended.
	AliveNodes int
	// AllInformed reports whether every alive node was informed at the end.
	AllInformed bool
	// FirstAllInformed is the earliest round after which every alive node
	// was informed, or -1 if that never happened.
	FirstAllInformed int
	// Transmissions is the total number of message transmissions (lost
	// transmissions included, as in the paper's accounting).
	Transmissions int64
	// ChannelsDialed is the total number of channel dials mandated by the
	// model (every alive node dials min(k, degree) neighbours per round).
	ChannelsDialed int64
	// InformedAt[v] is the round in which v first received the message
	// (Uninformed if never).
	InformedAt []int32
	// PerRound holds per-round metrics when Config.RecordRounds is set.
	PerRound []RoundMetrics
}

// Engine runs one message broadcast under the random phone call model.
type Engine struct {
	cfg   Config
	topo  Topology
	proto Protocol

	n          int
	k          int
	informedAt []int32
	pending    []int32 // nodes newly informed in the current round
	isPending  []bool

	dialTargets []int32 // flat n×k; Uninformed (-1) marks "no channel"

	// Adjacency view (see dial.go). NewEngine takes the topology's CSR
	// view (CSRViewer), else its computed view (ImplicitViewer), else
	// wraps it in viewAdapter, so the round loops never call
	// Topology.Degree/Neighbor/Alive. A CSR view fills csrOff/csrAdj, a
	// computed one fills nbrs; aliveBits is the view's liveness bitset
	// (nil = every id alive) and epoch the epoch it was fetched at —
	// after every Stepper.Step the engine re-fetches the view iff the
	// epoch advanced (refreshView).
	csrView   CSRViewer
	impView   ImplicitViewer
	csrOff    []int32
	csrAdj    []int32
	nbrs      ImplicitNeighbors
	aliveBits []uint64
	epoch     uint64

	// shard state; see parallel.go
	workers    int
	shards     []parShard
	roundCount []int64 // nodes currently informed at round r, by r

	// Per-round protocol decision tables, indexed by receipt round: Run
	// fills them once per round, so SendPush/SendPull is called
	// O(rounds²) times instead of inside node loops.
	pushDec []bool
	pullDec []bool

	// memory for the sequentialised model (AvoidRecent > 0)
	recent    []int32 // flat n×AvoidRecent ring of recent partners
	recentPos []int

	// listCursor holds each node's position in its neighbour list for the
	// quasirandom strategy (-1 until the first dial draws the start).
	listCursor []int32

	// budget caches the per-round dial budget. For frozen topologies it is
	// computed once; for dynamic ones it is recomputed only after a Step
	// that changed membership (joins reported, or the alive count moved —
	// budgetAlive remembers the count the cache was computed for).
	budget      int64
	budgetAlive int

	// aliveCounter, when the topology supports it, answers aliveCount in
	// O(1) instead of a popcount over the alive bitset.
	aliveCounter AliveCounter

	// Edge-use census (Config.TrackEdgeUse): usedEdges records undirected
	// edges that carried a transmission; unusedDeg[v] counts v's incident
	// edges not yet used. On a fully-alive CSR view a bitset over dense
	// edge ids (usedBits) replaces the map; slotEdge maps every CSR
	// adjacency slot to its edge id (parallel edges share one id, matching
	// the map's endpoint-keyed semantics), edgeEndA/B recover the
	// endpoints, and dialEdge mirrors dialTargets with the dialled edge ids.
	usedEdges map[int64]struct{}
	unusedDeg []int32
	slotEdge  []int32
	edgeEndA  []int32
	edgeEndB  []int32
	usedBits  []uint64
	dialEdge  []int32
}

// NewEngine validates cfg and prepares a run.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("phonecall: Config.Topology is required")
	}
	if cfg.Protocol == nil {
		return nil, fmt.Errorf("phonecall: Config.Protocol is required")
	}
	if cfg.RNG == nil {
		return nil, fmt.Errorf("phonecall: Config.RNG is required")
	}
	n := cfg.Topology.NumNodes()
	if cfg.Source < 0 || cfg.Source >= n {
		return nil, fmt.Errorf("phonecall: source %d out of range [0,%d)", cfg.Source, n)
	}
	if !cfg.Topology.Alive(cfg.Source) {
		return nil, fmt.Errorf("phonecall: source %d is not alive", cfg.Source)
	}
	if cfg.Protocol.Choices() < 1 {
		return nil, fmt.Errorf("phonecall: protocol %q dials %d < 1 neighbours", cfg.Protocol.Name(), cfg.Protocol.Choices())
	}
	if cfg.Protocol.Horizon() < 1 {
		return nil, fmt.Errorf("phonecall: protocol %q has horizon %d < 1", cfg.Protocol.Name(), cfg.Protocol.Horizon())
	}
	if cfg.ChannelFailureProb < 0 || cfg.ChannelFailureProb > 1 {
		return nil, fmt.Errorf("phonecall: ChannelFailureProb %v out of [0,1]", cfg.ChannelFailureProb)
	}
	if cfg.MessageLossProb < 0 || cfg.MessageLossProb > 1 {
		return nil, fmt.Errorf("phonecall: MessageLossProb %v out of [0,1]", cfg.MessageLossProb)
	}
	if cfg.AvoidRecent < 0 {
		return nil, fmt.Errorf("phonecall: AvoidRecent %d < 0", cfg.AvoidRecent)
	}
	if cfg.DialStrategy != DialUniform && cfg.DialStrategy != DialQuasirandom {
		return nil, fmt.Errorf("phonecall: unknown dial strategy %d", cfg.DialStrategy)
	}
	if cfg.DialStrategy == DialQuasirandom && cfg.AvoidRecent > 0 {
		return nil, fmt.Errorf("phonecall: DialQuasirandom is incompatible with AvoidRecent")
	}
	if cfg.Workers < WorkersAuto {
		return nil, fmt.Errorf("phonecall: Workers %d invalid (use WorkersAuto, 0 or a positive count)", cfg.Workers)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("phonecall: Shards %d < 0", cfg.Shards)
	}
	e := &Engine{
		cfg:   cfg,
		topo:  cfg.Topology,
		proto: cfg.Protocol,
		n:     n,
		k:     cfg.Protocol.Choices(),
	}
	// The round loops read adjacency and liveness from a view only: the
	// CSR arrays when the topology has them (indexing beats recomputing),
	// else the computed view, else the interface adapter. The view is
	// fetched here and re-fetched only when its epoch advances after a
	// churn Step.
	if cv, ok := cfg.Topology.(CSRViewer); ok {
		e.csrView = cv
		e.csrOff, e.csrAdj, e.aliveBits, e.epoch = cv.CSRView()
	} else {
		iv, ok := cfg.Topology.(ImplicitViewer)
		if !ok {
			iv = &viewAdapter{Topology: cfg.Topology}
		}
		e.impView = iv
		e.nbrs, e.aliveBits, e.epoch = iv.ImplicitView()
	}
	e.aliveCounter, _ = cfg.Topology.(AliveCounter)
	e.informedAt = make([]int32, n)
	for i := range e.informedAt {
		e.informedAt[i] = Uninformed
	}
	e.isPending = make([]bool, n)
	e.dialTargets = make([]int32, n*e.k)
	// Preallocate the receipt queue so the round loop never grows it, and
	// the per-round protocol decision tables.
	e.pending = make([]int32, 0, n)
	e.pushDec = make([]bool, cfg.Protocol.Horizon()+1)
	e.pullDec = make([]bool, cfg.Protocol.Horizon()+1)
	if cfg.AvoidRecent > 0 {
		e.recent = make([]int32, n*cfg.AvoidRecent)
		for i := range e.recent {
			e.recent[i] = -1
		}
		e.recentPos = make([]int, n)
	}
	if cfg.DialStrategy == DialQuasirandom {
		e.listCursor = make([]int32, n)
		for i := range e.listCursor {
			e.listCursor[i] = -1 // start position drawn at first dial
		}
	}
	if cfg.TrackEdgeUse {
		if !cfg.RecordRounds {
			return nil, fmt.Errorf("phonecall: TrackEdgeUse requires RecordRounds")
		}
		if _, dynamic := cfg.Topology.(Stepper); dynamic {
			return nil, fmt.Errorf("phonecall: TrackEdgeUse requires a static topology")
		}
		e.unusedDeg = make([]int32, n)
		for v := 0; v < n; v++ {
			e.unusedDeg[v] = int32(cfg.Topology.Degree(v))
		}
		// The dense-edge-id census enumerates every CSR slot, which is only
		// well-defined on a fully-alive CSR view (dead rows hold
		// unspecified entries, and a computed view has no slots to
		// enumerate); every other view keys the census by endpoints.
		if e.csrView != nil && e.aliveBits == nil {
			e.initEdgeCensus()
		} else {
			e.usedEdges = make(map[int64]struct{})
		}
	}
	e.budget = DialBudget(cfg.Topology, e.k)
	e.budgetAlive = e.aliveCount()
	e.initShards()
	return e, nil
}

// recordRound charges the round's totals to res and, when RecordRounds or
// an Observer is set, materialises the per-round metrics. With neither consumer it stays allocation-free.
func (e *Engine) recordRound(res *Result, t, newly, informedCount int, roundTx int64) {
	budget := e.dialBudget()
	res.Transmissions += roundTx
	res.ChannelsDialed += budget
	res.Rounds = t
	if !e.cfg.RecordRounds && e.cfg.Observer == nil {
		return
	}
	rm := RoundMetrics{
		Round:         t,
		NewlyInformed: newly,
		Informed:      informedCount,
		Transmissions: roundTx,
		ChannelsDial:  budget,
	}
	if e.cfg.TrackEdgeUse {
		for v := 0; v < e.n; v++ {
			if e.unusedDeg[v] > 0 {
				rm.UnusedEdgeNodes++
			}
		}
	}
	if e.cfg.Observer != nil {
		e.cfg.Observer.OnRound(rm)
	}
	if e.cfg.RecordRounds {
		res.PerRound = append(res.PerRound, rm)
	}
}

// noteCompletion updates FirstAllInformed after round t and reports
// whether the run should stop early. Churn can re-introduce uninformed
// nodes after completion, which resets the completion round.
func (e *Engine) noteCompletion(res *Result, t, informedCount int, churning bool) (stop bool) {
	if informedCount >= e.aliveCount() {
		if res.FirstAllInformed < 0 {
			res.FirstAllInformed = t
		}
		return e.cfg.StopEarly
	}
	if churning {
		res.FirstAllInformed = -1
	}
	return false
}

// finishResult fills the end-of-run summary fields from the final state.
func (e *Engine) finishResult(res *Result) {
	res.AliveNodes = e.aliveCount()
	res.Informed = e.recount()
	res.AllInformed = res.Informed == res.AliveNodes && res.AliveNodes > 0
	res.InformedAt = append([]int32(nil), e.informedAt...)
}

// edgeKey canonically encodes the undirected edge (v,w).
func edgeKey(v, w int) int64 {
	if v > w {
		v, w = w, v
	}
	return int64(v)<<32 | int64(w)
}

// markUsedKey records that the undirected edge with the given key carried
// a transmission (Lemma 4's census). The first use decrements both
// endpoints' unused-edge counters (twice at v for a self-loop). Shards
// buffer keys and the merge applies them here, in shard order.
func (e *Engine) markUsedKey(key int64) {
	if _, done := e.usedEdges[key]; done {
		return
	}
	e.usedEdges[key] = struct{}{}
	e.unusedDeg[int(key>>32)]--
	e.unusedDeg[int(key&0xffffffff)]--
}

// dialState bundles a PRNG stream with its reusable sampling scratch.
// Every shard owns its own, which is what makes the per-shard passes
// race-free and deterministic regardless of worker count.
type dialState struct {
	rng     *xrand.Rand
	dialIdx []int
	scratch []int
}

// newDialState builds a dialState for one PRNG stream.
func newDialState(rng *xrand.Rand, k int) dialState {
	return dialState{rng: rng, dialIdx: make([]int, 0, k)}
}

// scratchFor returns a scratch slice with capacity >= n for DistinctK.
func (ds *dialState) scratchFor(n int) []int {
	if cap(ds.scratch) < n {
		ds.scratch = make([]int, n)
	}
	return ds.scratch
}

// clearDialRow marks every dial slot of v as "no channel".
func (e *Engine) clearDialRow(v int) {
	base := v * e.k
	for j := 0; j < e.k; j++ {
		e.dialTargets[base+j] = Uninformed
	}
}

// dialBudget returns the number of dials the model mandates per round.
// The value is cached: frozen topologies compute it once in NewEngine,
// dynamic ones refresh it after membership changes (refreshBudget), so
// the O(n) DialBudget scan no longer runs every round.
func (e *Engine) dialBudget() int64 {
	return e.budget
}

// refreshBudget recomputes the cached dial budget after a topology Step,
// but only when membership actually changed: joins were reported or the
// alive count moved. Steps that merely rewire edges degree-preservingly
// (the overlay's Mix) leave the budget untouched. A Stepper that changes
// degrees without any membership change would need to pair the change
// with a join/leave to be budgeted — no topology in this repository does
// that, and the per-round budget test on the churn overlay pins the
// cached values against fresh DialBudget scans.
func (e *Engine) refreshBudget(joined []int) {
	alive := e.aliveCount()
	if len(joined) == 0 && alive == e.budgetAlive {
		return
	}
	e.budgetAlive = alive
	e.budget = DialBudget(e.topo, e.k)
}

// aliveCount returns the number of alive nodes.
func (e *Engine) aliveCount() int {
	if e.aliveBits == nil {
		return e.n
	}
	if e.aliveCounter != nil {
		return e.aliveCounter.AliveCount()
	}
	c := 0
	for _, w := range e.aliveBits {
		c += bits.OnesCount64(w)
	}
	return c
}

// isAlive reports liveness from the view's bitset (nil = all alive). The
// round loops call it wherever a node's liveness matters; it draws no
// randomness, so the layout of the view never changes a trace.
func (e *Engine) isAlive(v int) bool {
	return e.aliveBits == nil || e.aliveBits[uint(v)>>6]&(1<<(uint(v)&63)) != 0
}

// refreshView re-fetches the topology's view after a churn Step, but
// only when the epoch advanced — one epoch compare per round keeps a
// churning topology on its view between churn events.
func (e *Engine) refreshView() {
	if e.csrView != nil {
		off, adj, alive, epoch := e.csrView.CSRView()
		if epoch != e.epoch {
			e.csrOff, e.csrAdj, e.aliveBits, e.epoch = off, adj, alive, epoch
		}
		return
	}
	nbrs, alive, epoch := e.impView.ImplicitView()
	if epoch != e.epoch {
		e.nbrs, e.aliveBits, e.epoch = nbrs, alive, epoch
	}
}

// recount counts the informed alive nodes: after churn invalidated the
// incremental counter (callers refresh the view first) and at the end of
// a run.
func (e *Engine) recount() int {
	c := 0
	for v := 0; v < e.n; v++ {
		if e.isAlive(v) && e.informedAt[v] != Uninformed {
			c++
		}
	}
	return c
}

// Run is a convenience wrapper: build an engine from cfg and run it.
func Run(cfg Config) (Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return Result{}, err
	}
	return e.Run(), nil
}
