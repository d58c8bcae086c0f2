package regcast_test

import (
	"context"
	"testing"

	"regcast"
	"regcast/internal/baseline"
)

// transportSmoke runs one rumour through a real transport engine via the
// public Runner and checks the round trip: scenario in, spread metrics
// out, every node informed.
func transportSmoke(t *testing.T, engine regcast.Engine) {
	t.Helper()
	const n, d, k = 12, 4, 2
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, k)
	if err != nil {
		t.Fatal(err)
	}
	obs := &recordingObserver{}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto,
		regcast.WithSeed(8),
		regcast.WithRecordRounds(),
		regcast.WithObserver(obs))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario, regcast.WithEngine(engine))
	if err != nil {
		t.Fatal(err)
	}
	if res.Engine != engine {
		t.Fatalf("Result.Engine = %v, want %v", res.Engine, engine)
	}
	if !res.AllInformed {
		t.Fatalf("%v: rumour reached only %d/%d nodes in %d ticks", engine, res.Informed, n, res.Rounds)
	}
	if res.Transmissions <= 0 {
		t.Errorf("%v: no packets counted", engine)
	}
	if res.FirstAllInformed < 1 || res.FirstAllInformed > proto.Horizon() {
		t.Errorf("%v: FirstAllInformed = %d out of (0, %d]", engine, res.FirstAllInformed, proto.Horizon())
	}
	for v, at := range res.InformedAt {
		if at == regcast.Uninformed {
			t.Errorf("%v: node %d never marked informed", engine, v)
		}
	}
	// The observer stream must mirror the retained trace here too.
	if len(obs.rounds) != len(res.PerRound) {
		t.Errorf("%v: observer saw %d rounds, result retained %d", engine, len(obs.rounds), len(res.PerRound))
	}
	if len(obs.informedAt) != n {
		t.Errorf("%v: OnInformed fired for %d/%d nodes", engine, len(obs.informedAt), n)
	}
}

// TestGossipTransportRoundTrip proves the facade reaches the in-memory
// gossip transport: a Scenario run end-to-end over channel mailboxes.
func TestGossipTransportRoundTrip(t *testing.T) {
	transportSmoke(t, regcast.EngineGossipTransport)
}
