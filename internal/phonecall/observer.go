package phonecall

// Observer receives streaming per-round callbacks while a run executes, so
// callers can consume metrics online instead of retaining a full trace
// (Config.RecordRounds) in memory. The engine invokes observers from
// the coordinating goroutine only, in a deterministic order:
//
//   - OnInformed(source, 0) once, before round 1;
//   - for every round t, OnInformed(v, t) for each node first informed in
//     round t (in the engine's receipt order), then OnRound with round t's
//     metrics.
//
// Under churn a node can lose the message when it rejoins and be informed
// again later, so OnInformed may fire more than once for the same node.
// A nil Config.Observer adds no allocations and no per-round work to the
// steady-state loop beyond a nil check.
type Observer interface {
	// OnRound is called once per executed round, after the round's receipts
	// have been applied.
	OnRound(RoundMetrics)
	// OnInformed is called when node first receives the message (in round
	// `round`; 0 is the source's creation round).
	OnInformed(node, round int)
}
