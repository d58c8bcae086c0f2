// TCP cluster example: sixteen gossip nodes, each with its own loopback
// TCP listener, spreading a rumour with push&pull anti-entropy over real
// sockets through the gossip daemon (persistent per-peer connections,
// dedup, health metrics) — the deployment-shaped counterpart of the
// simulator, driven through the same public Scenario/Runner API: only the
// engine changes, the scenario and the streaming observer stay identical.
package main

import (
	"context"
	"fmt"
	"log"

	"regcast"
	"regcast/internal/baseline"
)

func main() {
	const n, d, k = 16, 4, 2

	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(3))
	if err != nil {
		log.Fatal(err)
	}
	// The protocol contributes its fan-out (k dials per tick) and tick
	// budget; on a transport engine the push&pull exchange itself runs as
	// anti-entropy over the wire.
	proto, err := baseline.NewPushPull(n, k)
	if err != nil {
		log.Fatal(err)
	}

	scenario, err := regcast.NewScenario(regcast.Static(g), proto,
		regcast.WithSeed(3),
		regcast.WithObserver(regcast.ObserverFuncs{
			Round: func(rs regcast.RoundStats) {
				fmt.Printf("tick %2d: %2d/%d nodes know the rumour (%d packets this tick)\n",
					rs.Round, rs.Informed, n, rs.Transmissions)
			},
		}))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("rumour inserted at node 0; gossiping over real TCP sockets...\n\n")
	res, err := regcast.Run(context.Background(), scenario,
		regcast.WithEngine(regcast.EngineDaemonTransport))
	if err != nil {
		log.Fatal(err)
	}
	if !res.AllInformed {
		log.Fatalf("rumour reached only %d/%d nodes in %d ticks", res.Informed, n, res.Rounds)
	}
	fmt.Printf("\nall %d nodes informed over TCP in %d ticks (%d packets on the wire, ledger gap %d)\n",
		n, res.FirstAllInformed, res.Transmissions, res.Transport.LedgerGap())
}
