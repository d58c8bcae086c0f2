package phonecall

import (
	"regcast/internal/sched"
)

// WorkersAuto, given as Config.Workers, selects GOMAXPROCS worker
// goroutines for the sharded engine.
const WorkersAuto = sched.WorkersAuto

// DefaultShards is the shard count used when Config.Shards is 0. It comes
// from the shared scheduler substrate (internal/sched): a fixed constant —
// deliberately NOT tied to GOMAXPROCS — so that a run's trace depends only
// on (seed, topology, protocol, shard count) and is reproducible across
// machines and worker counts.
//
// Determinism scope: every run executes the same shard passes, inline on
// the calling goroutine (Workers 0 or 1) or on a worker pool, so a trace
// depends on the seed and the shard count and never on the worker count.
// Per-shard streams are what make that possible at all — a single shared
// stream would make the draw order depend on goroutine scheduling.
// Earlier releases also shipped a single-stream loop with a different
// draw order; TestShardedMatchesLegacyStatistics keeps this engine's
// statistics pinned to the means that loop produced.
const DefaultShards = sched.DefaultShards

// parShard is one node partition of the sharded engine. A shard owns the
// contiguous node range [lo, hi), its own PRNG stream (derived
// deterministically from the run RNG and the shard index), and its own
// outbox, so the per-round shard passes share no mutable state.
type parShard struct {
	lo, hi int
	ds     dialState

	// Per-round outputs, merged sequentially in shard-index order.
	outbox  []int32 // candidate receivers queued by this shard
	usedBuf []int64 // edges that carried a transmission (TrackEdgeUse; see edgeRef)
	tx      int64   // transmissions sent by this shard

	_ [24]byte // pad to soften false sharing between adjacent shards
}

// initShards prepares the shards: resolve the worker count,
// partition the node range, and derive one independent PRNG stream per
// shard from the run RNG (stream i is the i-th Split of cfg.RNG, so the
// whole run remains reproducible from the master seed).
func (e *Engine) initShards() {
	nShards := e.cfg.Shards
	if nShards == 0 {
		nShards = DefaultShards
	}
	e.workers = sched.Resolve(e.cfg.Workers, nShards)
	e.shards = make([]parShard, nShards)
	for i := range e.shards {
		sh := &e.shards[i]
		sh.lo, sh.hi = sched.Bounds(i, e.n, nShards)
		sh.ds = newDialState(e.cfg.RNG.Split(), e.k)
	}
	e.roundCount = make([]int64, e.proto.Horizon()+1)
}

// Run executes the full schedule and returns the result. Each round runs
// three steps: (1) compute the protocol's push/pull decision tables for
// the round, (2) run the dial/push/pull pass of every shard — concurrently
// on up to Workers goroutines — with each shard drawing only from its own
// PRNG stream and writing only its own dial rows and outbox, and (3)
// merge the per-shard outboxes into the global receipt queue in shard
// order. Because shard streams and the merge order are fixed, the result
// is bit-identical for every worker count.
func (e *Engine) Run() Result {
	res := Result{FirstAllInformed: -1}
	e.informedAt[e.cfg.Source] = 0
	e.roundCount[0] = 1
	informedCount := 1
	obs := e.cfg.Observer
	if obs != nil {
		obs.OnInformed(e.cfg.Source, 0)
	}

	horizon := e.proto.Horizon()
	neverPulls := false
	if pf, ok := e.proto.(PullFree); ok {
		neverPulls = pf.NeverPulls()
	}
	stepper, _ := e.topo.(Stepper)

	for t := 1; t <= horizon; t++ {
		// Step 1: decision tables. A node's behaviour this round is a pure
		// function of its receipt round, so one table lookup per node
		// replaces per-node Protocol calls in the hot shard passes.
		anyPush, anyPull := false, false
		for ia := 0; ia < t; ia++ {
			e.pushDec[ia] = e.proto.SendPush(t, ia)
			e.pullDec[ia] = !neverPulls && e.proto.SendPull(t, ia)
			if e.roundCount[ia] > 0 {
				anyPush = anyPush || e.pushDec[ia]
				anyPull = anyPull || e.pullDec[ia]
			}
		}
		dialAll := anyPull || e.cfg.AvoidRecent > 0

		// Step 2: shard passes (the parallel section).
		if anyPush || dialAll {
			e.runShardPasses(t, anyPush, anyPull, dialAll)
		} else {
			for i := range e.shards {
				sh := &e.shards[i]
				sh.tx, sh.outbox, sh.usedBuf = 0, sh.outbox[:0], sh.usedBuf[:0]
			}
		}

		// Step 3: merge outboxes in shard-index order (deterministic).
		var roundTx int64
		for i := range e.shards {
			sh := &e.shards[i]
			roundTx += sh.tx
			for _, w := range sh.outbox {
				if e.isPending[w] {
					continue
				}
				e.isPending[w] = true
				e.pending = append(e.pending, w)
			}
			for _, ref := range sh.usedBuf {
				if e.usedBits != nil {
					e.markUsedID(int32(ref))
				} else {
					e.markUsedKey(ref)
				}
			}
		}

		// Apply receipts at the end of the round.
		newly := len(e.pending)
		for _, v := range e.pending {
			e.isPending[v] = false
			e.informedAt[v] = int32(t)
			if obs != nil {
				obs.OnInformed(int(v), t)
			}
		}
		e.roundCount[t] += int64(newly)
		e.pending = e.pending[:0]
		informedCount += newly

		e.recordRound(&res, t, newly, informedCount, roundTx)

		// Churn happens between rounds; joiners start uninformed, which
		// also keeps the per-cohort counts (roundCount) consistent.
		if stepper != nil {
			joined := stepper.Step(t)
			for _, v := range joined {
				if ia := e.informedAt[v]; ia != Uninformed {
					e.roundCount[ia]--
					e.informedAt[v] = Uninformed
				}
			}
			e.refreshView()
			informedCount = e.recount()
			e.refreshBudget(joined)
		}

		if e.noteCompletion(&res, t, informedCount, stepper != nil) {
			break
		}
		if e.cfg.Halt != nil && e.cfg.Halt() {
			break
		}
	}

	e.finishResult(&res)
	return res
}

// runShardPasses executes shardPass for every shard, inline when a single
// worker is configured (Workers 0 or 1) and on a small
// work-stealing pool otherwise. Shard-to-worker assignment is arbitrary;
// shard results are not, so scheduling cannot influence the outcome.
func (e *Engine) runShardPasses(t int, anyPush, anyPull, dialAll bool) {
	if e.workers <= 1 {
		// No func-value indirection here: the inline path must stay
		// allocation-free per round, and a captured func variable would be
		// moved to the heap by the worker closure below.
		for i := range e.shards {
			e.shardPass(&e.shards[i], t, anyPush, anyPull, dialAll)
		}
		return
	}
	sched.Pool(e.workers, len(e.shards), func(i int) {
		e.shardPass(&e.shards[i], t, anyPush, anyPull, dialAll)
	})
}

// shardPass runs one round for the nodes a shard owns: dial sampling,
// push transmissions, then pull transmissions, in ascending node order.
// It reads informedAt (frozen during the round) and writes only the
// shard's own dial rows, per-node dial memory/cursors, and outbox, so
// concurrent shard passes never race. Delivery candidates are queued in
// the outbox and census hits in usedBuf (edgeRef); global dedup happens
// in the sequential merge.
func (e *Engine) shardPass(sh *parShard, t int, anyPush, anyPull, dialAll bool) {
	sh.tx = 0
	sh.outbox = sh.outbox[:0]
	sh.usedBuf = sh.usedBuf[:0]
	track := e.cfg.TrackEdgeUse
	loss := e.cfg.MessageLossProb
	k := e.k

	for v := sh.lo; v < sh.hi; v++ {
		alive := e.isAlive(v)
		ia := e.informedAt[v]
		sender := anyPush && alive && ia != Uninformed && int(ia) < t && e.pushDec[ia]
		if dialAll {
			if alive {
				e.sampleDials(v, &sh.ds)
			} else {
				e.clearDialRow(v)
			}
		} else if sender {
			e.sampleDials(v, &sh.ds)
		}
		if !sender {
			continue
		}
		base := v * k
		for j := 0; j < k; j++ {
			w := e.dialTargets[base+j]
			if w < 0 {
				continue
			}
			sh.tx++
			if track {
				sh.usedBuf = append(sh.usedBuf, e.edgeRef(v, base+j, w))
			}
			if loss > 0 && sh.ds.rng.Bool(loss) {
				continue
			}
			if e.informedAt[w] == Uninformed && e.isAlive(int(w)) {
				sh.outbox = append(sh.outbox, w)
			}
		}
	}

	if !anyPull {
		return
	}
	// Pull is evaluated caller-side: every channel v→w the shard's nodes
	// dialled lets an informed, pulling callee w answer the caller v. The
	// receiver is always the shard's own node v.
	for v := sh.lo; v < sh.hi; v++ {
		if !e.isAlive(v) {
			continue
		}
		uninformedCaller := e.informedAt[v] == Uninformed
		base := v * k
		for j := 0; j < k; j++ {
			w := e.dialTargets[base+j]
			if w < 0 {
				continue
			}
			wia := e.informedAt[w]
			if wia == Uninformed || int(wia) >= t || !e.pullDec[wia] {
				continue
			}
			sh.tx++
			if track {
				sh.usedBuf = append(sh.usedBuf, e.edgeRef(v, base+j, w))
			}
			if loss > 0 && sh.ds.rng.Bool(loss) {
				continue
			}
			if uninformedCaller {
				sh.outbox = append(sh.outbox, int32(v))
			}
		}
	}
}
