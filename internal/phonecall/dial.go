package phonecall

// Dial sampling over the engine's adjacency view. NewEngine fetches one
// view per topology (see Engine): a CSR view's raw arrays (csrOff/csrAdj),
// or a computed view's Degree/NeighborAt arithmetic (nbrs) — an implicit
// graph family, or viewAdapter for a topology that offers no view of its
// own. The samplers below read neighbours from whichever layout is
// present and liveness from the view's bitset (isAlive); nothing in a
// round calls Topology.Degree/Neighbor/Alive.
//
// Contract: a run's trace depends on the adjacency the view enumerates,
// never on its layout. Every layout answers the same rows in the same
// order, neighbour reads and liveness probes draw no randomness, and each
// sampler consumes the shard's stream identically on both layouts (the
// small-k samplers are stream-compatible with DistinctK). Golden tests
// (fastpath_test.go) pin CSR runs against the same runs fed through
// viewAdapter across the E1–E20 configuration matrix and across churn
// overlay configurations.

// sampleDials fills node v's dialTargets row (and, when the bitset edge
// census is on, its dialEdge row): min(k, deg) neighbours under the
// configured dial strategy, with dead targets and failed channels
// recorded as Uninformed. All randomness is drawn from ds, the stream of
// the shard that owns v. The uniform dial over CSR rows — the hot loop
// of every Static and overlay run — is inline here; a computed view
// takes sampleDialsComputed, which mirrors it arm for arm.
func (e *Engine) sampleDials(v int, ds *dialState) {
	if e.nbrs != nil {
		e.sampleDialsComputed(v, ds)
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
	if e.cfg.AvoidRecent > 0 || e.cfg.DialStrategy == DialQuasirandom {
		e.sampleNonUniform(v, off, deg, ds)
		return
	}
	var picks [4]int
	idxs := e.pickSlots(&picks, deg, ds)
	failure := e.cfg.ChannelFailureProb
	if e.aliveBits != nil {
		// Churn view: a dead target skips the slot before the fault draw
		// (no census on partially-alive views, so dialEdge is nil here).
		for j, idx := range idxs {
			w := e.csrAdj[off+idx]
			if !e.isAlive(int(w)) {
				continue
			}
			if failure > 0 && ds.rng.Bool(failure) {
				continue
			}
			e.dialTargets[base+j] = w
		}
		return
	}
	if e.dialEdge == nil {
		for j, idx := range idxs {
			if failure > 0 && ds.rng.Bool(failure) {
				continue
			}
			e.dialTargets[base+j] = e.csrAdj[off+idx]
		}
		return
	}
	for j, idx := range idxs {
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		e.dialTargets[base+j] = e.csrAdj[off+idx]
		e.dialEdge[base+j] = e.slotEdge[off+idx]
	}
}

// sampleDialsComputed is sampleDials over a computed view. On the
// fully-alive arm the fault draw happens before the neighbour
// computation: the order between the two is unobservable (NeighborAt
// draws no run randomness), and failed channels then skip the replay
// work of streamed families.
func (e *Engine) sampleDialsComputed(v int, ds *dialState) {
	base := v * e.k
	for j := 0; j < e.k; j++ {
		e.dialTargets[base+j] = Uninformed
	}
	deg := e.nbrs.Degree(v)
	if deg == 0 {
		return
	}
	if e.cfg.AvoidRecent > 0 || e.cfg.DialStrategy == DialQuasirandom {
		e.sampleNonUniform(v, 0, deg, ds)
		return
	}
	var picks [4]int
	idxs := e.pickSlots(&picks, deg, ds)
	failure := e.cfg.ChannelFailureProb
	if e.aliveBits != nil {
		for j, idx := range idxs {
			w := e.nbrs.NeighborAt(v, idx)
			if !e.isAlive(int(w)) {
				continue
			}
			if failure > 0 && ds.rng.Bool(failure) {
				continue
			}
			e.dialTargets[base+j] = w
		}
		return
	}
	for j, idx := range idxs {
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		e.dialTargets[base+j] = e.nbrs.NeighborAt(v, idx)
	}
}

// sampleNonUniform runs the sampler of a non-uniform dial strategy: the
// dial memory (AvoidRecent > 0) or the quasirandom list walk. off is v's
// CSR row offset (0 on a computed view).
func (e *Engine) sampleNonUniform(v, off, deg int, ds *dialState) {
	if e.cfg.AvoidRecent > 0 {
		e.sampleWithMemory(v, off, deg, ds)
		return
	}
	e.sampleQuasirandom(v, off, deg, ds)
}

// pickSlots draws the row slots of one uniform dial: min(k, deg)
// distinct indices in [0, deg), written to picks when a small-k sampler
// serves the draw and to ds.dialIdx otherwise. Every arm is
// stream-compatible with DistinctK. k == 1 is a single IntN on either of
// DistinctK's branches. For k <= 4 in the rejection regime (deg >= 64,
// where xrand's shared rejectionRegime predicate holds) the scratch-free
// Distinct2/3/4 win; below it DistinctK's vectorised scratch init
// measures faster (BenchmarkDistinctK). The deg >= 64 gate is a
// performance choice only — both arms are stream-identical for any deg,
// so a retuned xrand threshold cannot change a trace. picks only flows
// to the result, so the callers' arrays stay on the stack.
func (e *Engine) pickSlots(picks *[4]int, deg int, ds *dialState) []int {
	kk := min(e.k, deg)
	switch {
	case kk == 1:
		picks[0] = ds.rng.IntN(deg)
		return picks[:1]
	case kk == 2 && deg >= 64:
		picks[0], picks[1] = ds.rng.Distinct2(deg)
		return picks[:2]
	case kk == 3 && deg >= 64:
		picks[0], picks[1], picks[2] = ds.rng.Distinct3(deg)
		return picks[:3]
	case kk == 4 && deg >= 64:
		picks[0], picks[1], picks[2], picks[3] = ds.rng.Distinct4(deg)
		return picks[:4]
	default:
		ds.dialIdx = ds.rng.DistinctK(ds.dialIdx, kk, deg, ds.scratchFor(deg))
		return ds.dialIdx
	}
}

// neighborAt reads slot idx of v's row, whose CSR offset is off, from
// whichever layout the view has. The cold samplers below use it; the
// uniform dials index their layout directly.
func (e *Engine) neighborAt(v, off, idx int) int32 {
	if e.nbrs != nil {
		return e.nbrs.NeighborAt(v, idx)
	}
	return e.csrAdj[off+idx]
}

// sampleQuasirandom dials the next k entries of v's neighbour list,
// drawing a uniform start position on the first dial (Doerr et al.'s
// quasirandom model).
func (e *Engine) sampleQuasirandom(v, off, deg int, ds *dialState) {
	base := v * e.k
	if e.listCursor[v] < 0 {
		e.listCursor[v] = int32(ds.rng.IntN(deg))
	}
	kk := min(e.k, deg)
	cur := int(e.listCursor[v])
	failure := e.cfg.ChannelFailureProb
	for j := 0; j < kk; j++ {
		idx := cur + j
		if idx >= deg {
			idx -= deg
		}
		w := e.neighborAt(v, off, idx)
		if !e.isAlive(int(w)) {
			continue // dead target: skip before the fault draw
		}
		if failure > 0 && ds.rng.Bool(failure) {
			continue
		}
		e.dialTargets[base+j] = w
		if e.dialEdge != nil {
			e.dialEdge[base+j] = e.slotEdge[off+idx]
		}
	}
	e.listCursor[v] = int32((cur + kk) % deg)
}

// sampleWithMemory implements footnote 2's sequentialised model: one dial
// per round, chosen uniformly among neighbours not contacted in the last
// AvoidRecent rounds. If every neighbour is recent (possible only when
// degree <= AvoidRecent), the choice falls back to uniform.
func (e *Engine) sampleWithMemory(v, off, deg int, ds *dialState) {
	r := e.cfg.AvoidRecent
	memBase := v * r
	choice, slot := int32(-1), -1
	for attempt := 0; attempt < 4*deg+16; attempt++ {
		idx := ds.rng.IntN(deg)
		w := e.neighborAt(v, off, idx)
		recent := false
		for i := 0; i < r; i++ {
			if e.recent[memBase+i] == w {
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
		choice, slot = e.neighborAt(v, off, idx), off+idx
	}
	// Record the partner regardless of channel failure: the node dialled it.
	e.recent[memBase+e.recentPos[v]] = choice
	e.recentPos[v] = (e.recentPos[v] + 1) % r
	if !e.isAlive(int(choice)) {
		return // dead partner: recorded but no channel
	}
	if failure := e.cfg.ChannelFailureProb; failure > 0 && ds.rng.Bool(failure) {
		return
	}
	e.dialTargets[v*e.k] = choice
	if e.dialEdge != nil {
		e.dialEdge[v*e.k] = e.slotEdge[slot]
	}
}

// edgeRef is what a shard pass buffers for the edge census when a
// transmission crosses dial slot s of node v towards w: the dense edge id
// under the bitset census, else the endpoint key. The merge applies it
// with markUsedID or markUsedKey respectively.
func (e *Engine) edgeRef(v, s int, w int32) int64 {
	if e.dialEdge != nil {
		return int64(e.dialEdge[s])
	}
	return edgeKey(v, int(w))
}

// initEdgeCensus builds the bitset census structures: a dense edge
// id per CSR adjacency slot (parallel edges between the same endpoints
// share one id, so the census conflates them exactly like the endpoint-keyed
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

// markUsedID is markUsedKey for the bitset census's dense edge ids: the first
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
