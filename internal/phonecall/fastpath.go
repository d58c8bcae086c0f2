package phonecall

// This file is the zero-interface hot path of the engine. When the
// topology exposes an epoch-stamped CSR view (CSRViewer; frozen Static
// graphs and the churning overlay alike, unless Config.DisableFastPath),
// NewEngine fetches the view's raw arrays once and the round loops run
// against raw slices: no Topology.Degree/Neighbor/Alive dynamic dispatch
// in dial sampling, the push loop, or the pull scan, small-k distinct
// samplers (xrand.Distinct2/3/4) instead of the scratch-based DistinctK,
// and — with Config.TrackEdgeUse — a CSR-indexed bitset census instead of
// the edge-key map. On a churning topology the view is re-fetched only
// when its epoch advances (refreshCSR, once per Step), and liveness is a
// bitset probe (aliveFast) placed exactly where the reference path calls
// Topology.Alive.
//
// Contract: for identical Config (minus DisableFastPath) and seed, the
// fast path produces bit-identical Results to the reference interface
// path, because it consumes the PRNG stream draw-for-draw identically:
// the small-k samplers are stream-compatible with DistinctK, alive checks
// draw no randomness (bitset probes on churn views, vacuous on frozen
// graphs), and the fault helpers (chanFails/msgLost) are shared with the
// reference path. Golden tests (fastpath_test.go) pin this across the
// E1–E20 configuration matrix and across churn overlay configurations.

// sampleDialsFast is the CSR twin of sampleDialsFor: it fills node v's
// dialTargets row (and, when the edge census is on, its dialEdge row)
// without interface calls, alive checks, or O(deg) scratch. On an
// implicit view (no CSR arrays) it dispatches to the arithmetic twin in
// fastpath_implicit.go — the shard passes below never touch
// adjacency, so this is the fast path's only implicit/dense branch.
func (e *Engine) sampleDialsFast(v int, ds *dialState) {
	if e.impNbrs != nil {
		e.sampleDialsImplicit(v, ds)
		return
	}
	base := v * e.k
	for j := 0; j < e.k; j++ {
		e.dialTargets[base+j] = Uninformed
	}
	off := int(e.csrOff[v])
	deg := int(e.csrOff[v+1]) - off
	if deg == 0 {
		return
	}
	if e.cfg.AvoidRecent > 0 {
		e.sampleWithMemoryFast(v, off, deg, ds)
		return
	}
	if e.cfg.DialStrategy == DialQuasirandom {
		e.sampleQuasirandomFast(v, off, deg, ds)
		return
	}
	kk := e.k
	if kk > deg {
		kk = deg
	}
	// Sampler selection, stream-compatible with DistinctK in every arm.
	// k == 1 is a single IntN on either of DistinctK's branches. For
	// k <= 4 in the rejection regime (deg >= 64, where xrand's shared
	// rejectionRegime predicate holds) the scratch-free Distinct2/3/4
	// win; below it DistinctK's vectorised scratch init measures faster
	// (BenchmarkDistinctK). The deg >= 64 gate here is a performance
	// choice only — both arms are stream-identical for any deg, so a
	// retuned xrand threshold cannot break bit-identity.
	var picks [4]int
	var idxs []int
	switch {
	case kk == 1:
		picks[0] = ds.rng.IntN(deg)
		idxs = picks[:1]
	case kk == 2 && deg >= 64:
		picks[0], picks[1] = ds.rng.Distinct2(deg)
		idxs = picks[:2]
	case kk == 3 && deg >= 64:
		picks[0], picks[1], picks[2] = ds.rng.Distinct3(deg)
		idxs = picks[:3]
	case kk == 4 && deg >= 64:
		picks[0], picks[1], picks[2], picks[3] = ds.rng.Distinct4(deg)
		idxs = picks[:4]
	default:
		ds.dialIdx = ds.rng.DistinctK(ds.dialIdx, kk, deg, ds.scratchFor(deg))
		idxs = ds.dialIdx
	}
	failure := e.cfg.ChannelFailureProb
	if e.aliveBits != nil {
		// Churn view: a dead target skips the slot before the fault draw,
		// exactly like the reference path's Alive(w) check (no census on
		// partially-alive views; NewEngine guarantees dialEdge == nil here).
		for j, idx := range idxs {
			w := e.csrAdj[off+idx]
			if !e.aliveFast(int(w)) {
				continue
			}
			if failure > 0 && e.chanFails(ds) {
				continue
			}
			e.dialTargets[base+j] = w
		}
		return
	}
	if e.dialEdge == nil {
		for j, idx := range idxs {
			if failure > 0 && e.chanFails(ds) {
				continue
			}
			e.dialTargets[base+j] = e.csrAdj[off+idx]
		}
		return
	}
	for j, idx := range idxs {
		if failure > 0 && e.chanFails(ds) {
			continue
		}
		e.dialTargets[base+j] = e.csrAdj[off+idx]
		e.dialEdge[base+j] = e.slotEdge[off+idx]
	}
}

// sampleQuasirandomFast is the CSR twin of sampleQuasirandom.
func (e *Engine) sampleQuasirandomFast(v, off, deg int, ds *dialState) {
	base := v * e.k
	if e.listCursor[v] < 0 {
		e.listCursor[v] = int32(ds.rng.IntN(deg))
	}
	kk := e.k
	if kk > deg {
		kk = deg
	}
	cur := int(e.listCursor[v])
	failure := e.cfg.ChannelFailureProb
	for j := 0; j < kk; j++ {
		idx := cur + j
		if idx >= deg {
			idx -= deg
		}
		w := e.csrAdj[off+idx]
		if e.aliveBits != nil && !e.aliveFast(int(w)) {
			continue // dead target: skip before the fault draw (reference order)
		}
		if failure > 0 && e.chanFails(ds) {
			continue
		}
		e.dialTargets[base+j] = w
		if e.dialEdge != nil {
			e.dialEdge[base+j] = e.slotEdge[off+idx]
		}
	}
	e.listCursor[v] = int32((cur + kk) % deg)
}

// sampleWithMemoryFast is the CSR twin of sampleWithMemory (footnote 2's
// sequentialised model: one dial per round avoiding recent partners).
func (e *Engine) sampleWithMemoryFast(v, off, deg int, ds *dialState) {
	r := e.cfg.AvoidRecent
	memBase := v * r
	choice := -1
	slot := -1
	for attempt := 0; attempt < 4*deg+16; attempt++ {
		idx := ds.rng.IntN(deg)
		w := int(e.csrAdj[off+idx])
		recent := false
		for i := 0; i < r; i++ {
			if e.recent[memBase+i] == int32(w) {
				recent = true
				break
			}
		}
		if !recent {
			choice, slot = w, off+idx
			break
		}
	}
	if choice < 0 {
		idx := ds.rng.IntN(deg)
		choice, slot = int(e.csrAdj[off+idx]), off+idx
	}
	// Record the partner regardless of channel failure: the node dialled it.
	e.recent[memBase+e.recentPos[v]] = int32(choice)
	e.recentPos[v] = (e.recentPos[v] + 1) % r
	if e.aliveBits != nil && !e.aliveFast(choice) {
		return // dead partner: recorded but no channel (reference order)
	}
	if e.cfg.ChannelFailureProb > 0 && e.chanFails(ds) {
		return
	}
	e.dialTargets[v*e.k] = int32(choice)
	if e.dialEdge != nil {
		e.dialEdge[v*e.k] = e.slotEdge[slot]
	}
}

// shardPassFast is the CSR twin of shardPass: one round for the node
// range a shard owns, drawing only from the shard's own stream. Census
// hits are buffered as edge ids (not edge keys) and merged by
// markUsedID, in shard order, exactly like the reference path's keys.
func (e *Engine) shardPassFast(sh *parShard, t int, anyPush, anyPull, dialAll bool) {
	sh.tx = 0
	sh.outbox = sh.outbox[:0]
	sh.usedBuf = sh.usedBuf[:0]
	census := e.dialEdge != nil
	loss := e.cfg.MessageLossProb
	k := e.k

	for v := sh.lo; v < sh.hi; v++ {
		alive := e.aliveFast(v)
		ia := e.informedAt[v]
		sender := anyPush && alive && ia != Uninformed && int(ia) < t && e.pushDec[ia]
		if dialAll {
			if alive {
				e.sampleDialsFast(v, &sh.ds)
			} else {
				e.clearDialRow(v)
			}
		} else if sender {
			e.sampleDialsFast(v, &sh.ds)
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
			if census {
				sh.usedBuf = append(sh.usedBuf, int64(e.dialEdge[base+j]))
			}
			if loss > 0 && e.msgLost(&sh.ds) {
				continue
			}
			if e.informedAt[w] == Uninformed && e.aliveFast(int(w)) {
				sh.outbox = append(sh.outbox, w)
			}
		}
	}

	if !anyPull {
		return
	}
	for v := sh.lo; v < sh.hi; v++ {
		if !e.aliveFast(v) {
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
			if census {
				sh.usedBuf = append(sh.usedBuf, int64(e.dialEdge[base+j]))
			}
			if loss > 0 && e.msgLost(&sh.ds) {
				continue
			}
			if uninformedCaller {
				sh.outbox = append(sh.outbox, int32(v))
			}
		}
	}
}

// initEdgeCensus builds the fast path's census structures: a dense edge
// id per CSR adjacency slot (parallel edges between the same endpoints
// share one id, so the census conflates them exactly like the reference
// map, and a self-loop's two slots share one id that decrements its
// node's counter twice on first use).
func (e *Engine) initEdgeCensus() {
	e.slotEdge = make([]int32, len(e.csrAdj))
	ids := make(map[int64]int32, len(e.csrAdj)/2)
	for v := 0; v < e.n; v++ {
		for s := int(e.csrOff[v]); s < int(e.csrOff[v+1]); s++ {
			w := int(e.csrAdj[s])
			key := edgeKey(v, w)
			id, ok := ids[key]
			if !ok {
				id = int32(len(e.edgeEndA))
				ids[key] = id
				a, b := v, w
				if a > b {
					a, b = b, a
				}
				e.edgeEndA = append(e.edgeEndA, int32(a))
				e.edgeEndB = append(e.edgeEndB, int32(b))
			}
			e.slotEdge[s] = id
		}
	}
	e.usedBits = make([]uint64, (len(e.edgeEndA)+63)/64)
	e.dialEdge = make([]int32, e.n*e.k)
}

// markUsedID is markUsedKey for the fast path's dense edge ids: the first
// transmission over an edge sets its bit and decrements both endpoints'
// unused-edge counters (twice at v for a self-loop).
func (e *Engine) markUsedID(id int32) {
	word, bit := id>>6, uint64(1)<<(id&63)
	if e.usedBits[word]&bit != 0 {
		return
	}
	e.usedBits[word] |= bit
	e.unusedDeg[e.edgeEndA[id]]--
	e.unusedDeg[e.edgeEndB[id]]--
}
