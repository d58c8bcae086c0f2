package regcast_test

import (
	"context"
	"flag"
	"testing"
	"time"

	"regcast"
	"regcast/internal/baseline"
)

// TestDaemonTransportRoundTrip proves the facade reaches the resilient
// gossip daemon: persistent per-peer connections, dial scheduler, dedup.
func TestDaemonTransportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping daemon transport smoke test")
	}
	transportSmoke(t, regcast.EngineDaemonTransport)
}

// TestChaosRunLedger runs a scenario over the daemon with a 20% seeded
// drop plan and checks the public contract: the rumour still reaches
// every node, the health snapshot comes back on Result.Transport, faults
// actually fired, and the ledger balances exactly.
func TestChaosRunLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping chaos run")
	}
	const n, d, k = 12, 4, 2
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, k)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := regcast.Run(context.Background(), scenario,
		regcast.WithEngine(regcast.EngineDaemonTransport),
		regcast.WithTransportFaults(regcast.FaultConfig{Seed: 21, Drop: 0.2}))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllInformed {
		t.Fatalf("rumour reached only %d/%d nodes under 20%% drops", res.Informed, n)
	}
	h := res.Transport
	if h == nil {
		t.Fatal("Result.Transport missing for the daemon engine")
	}
	if h.Faults == nil {
		t.Fatal("fault ledger missing from Result.Transport")
	}
	if h.Faults.Dropped == 0 {
		t.Error("drop plan injected zero drops")
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0 (sent = delivered + deduped + dropped)", gap)
	}
	if len(h.Peers) != n {
		t.Errorf("health snapshot has %d peer rows, want %d", len(h.Peers), n)
	}
}

// TestFaultsRejectNonTransportEngines pins the Run-time guard.
func TestFaultsRejectNonTransportEngines(t *testing.T) {
	const n, d = 16, 4
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), scenario,
		regcast.WithTransportFaults(regcast.FaultConfig{Drop: 0.1})); err == nil {
		t.Error("sharded engine accepted a fault plan")
	}
}

// TestFaultNodesOutOfRangeRejected is the regression test for chaos
// windows that name a node the cluster does not have: "-chaos-crash
// 999:1:3" on a 16-node cluster used to run with zero crash drops.
// Crash and partition node ids outside [0, n) must fail the run before
// any socket is opened.
func TestFaultNodesOutOfRangeRejected(t *testing.T) {
	const n, d = 16, 4
	g, err := regcast.NewRegularGraph(n, d, regcast.NewRand(8))
	if err != nil {
		t.Fatal(err)
	}
	proto, err := baseline.NewPushPull(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	scenario, err := regcast.NewScenario(regcast.Static(g), proto, regcast.WithSeed(8))
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseTransportFlags(t, "-chaos", "-chaos-crash", "999:1:3")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regcast.Run(context.Background(), scenario, f.RunnerOptions(n, 8)...); err == nil {
		t.Error("-chaos-crash 999:1:3 accepted on a 16-node cluster")
	}
	for _, cfg := range []regcast.FaultConfig{
		{Crashes: []regcast.CrashWindow{{Node: n, From: 1, Until: 3}}},
		{Crashes: []regcast.CrashWindow{{Node: -1, From: 1, Until: 3}}},
		{Partitions: []regcast.PartitionWindow{{From: 1, Until: 3, A: []int{0, n}}}},
	} {
		for _, engine := range []regcast.Engine{regcast.EngineGossipTransport, regcast.EngineDaemonTransport} {
			if _, err := regcast.Run(context.Background(), scenario,
				regcast.WithEngine(engine), regcast.WithTransportFaults(cfg)); err == nil {
				t.Errorf("%v accepted out-of-range fault nodes %+v", engine, cfg)
			}
		}
	}
}

func parseTransportFlags(t *testing.T, args ...string) (*regcast.TransportFlags, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := regcast.AddTransportFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, f.Validate()
}

func TestTransportFlags(t *testing.T) {
	f, err := parseTransportFlags(t,
		"-chaos", "-chaos-drop", "0.3", "-chaos-delay-prob", "0.1", "-chaos-delay", "3ms",
		"-chaos-partition", "1:4", "-chaos-crash", "2:1:5")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Daemon {
		t.Error("-chaos did not imply -daemon")
	}
	cfg := f.FaultConfig(8, 11)
	if cfg == nil {
		t.Fatal("FaultConfig nil with -chaos on")
	}
	if cfg.Seed != 11 {
		t.Errorf("Seed = %d, want run seed 11 when -chaos-seed is 0", cfg.Seed)
	}
	if cfg.Drop != 0.3 || cfg.DelayProb != 0.1 || cfg.Delay != 3*time.Millisecond {
		t.Errorf("probabilities not threaded: %+v", cfg)
	}
	if len(cfg.Partitions) != 1 || cfg.Partitions[0].From != 1 || cfg.Partitions[0].Until != 4 ||
		len(cfg.Partitions[0].A) != 4 {
		t.Errorf("partition window wrong: %+v", cfg.Partitions)
	}
	if len(cfg.Crashes) != 1 || cfg.Crashes[0] != (regcast.CrashWindow{Node: 2, From: 1, Until: 5}) {
		t.Errorf("crash window wrong: %+v", cfg.Crashes)
	}
	if opts := f.RunnerOptions(8, 11); len(opts) == 0 {
		t.Error("RunnerOptions empty with -chaos on")
	}

	// Plain -daemon: engine selection, no fault plan.
	f, err = parseTransportFlags(t, "-daemon")
	if err != nil {
		t.Fatal(err)
	}
	if cfg := f.FaultConfig(8, 1); cfg != nil {
		t.Error("FaultConfig non-nil without -chaos")
	}
	if opts := f.RunnerOptions(8, 1); len(opts) != 1 {
		t.Errorf("RunnerOptions = %d options for plain -daemon, want 1", len(opts))
	}

	// Off: no options at all.
	f, err = parseTransportFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	if opts := f.RunnerOptions(8, 1); len(opts) != 0 {
		t.Error("RunnerOptions non-empty with transport flags off")
	}
}

func TestTransportFlagsValidation(t *testing.T) {
	bad := [][]string{
		{"-chaos", "-chaos-drop", "1.5"},
		{"-chaos", "-chaos-dup", "-0.1"},
		{"-mailbox", "-3"},
		{"-chaos", "-chaos-partition", "nope"},
		{"-chaos", "-chaos-partition", "5:2"},
		{"-chaos", "-chaos-crash", "1:2"},
		{"-chaos", "-chaos-crash", "x:1:2"},
	}
	for _, args := range bad {
		if _, err := parseTransportFlags(t, args...); err == nil {
			t.Errorf("flags %v validated", args)
		}
	}
}
