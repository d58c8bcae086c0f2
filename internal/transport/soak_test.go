package transport

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"
)

// quietKey is the comparable part of a health snapshot, used to detect
// quiescence (two identical consecutive snapshots = nothing in flight).
type quietKey struct {
	h Health
	f FaultStats
}

func healthKey(hr HealthReporter) quietKey {
	h := hr.Health()
	var f FaultStats
	if h.Faults != nil {
		f = *h.Faults
	}
	h.Faults = nil
	h.Peers = nil
	return quietKey{h, f}
}

// settleHealth polls until the transport's counters stop moving.
func settleHealth(t *testing.T, hr HealthReporter) {
	t.Helper()
	deadline := time.Now().Add(stepWait(t, 5*time.Second))
	prev := healthKey(hr)
	for time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		cur := healthKey(hr)
		if reflect.DeepEqual(cur, prev) {
			return
		}
		prev = cur
	}
	t.Log("settleHealth: counters still moving at deadline; ledger check may be early")
}

// TestChaosSoak is the tentpole's acceptance test: anti-entropy gossip
// over the resilient daemon with deterministic fault injection. For every
// fault regime the rumour must still reach all nodes, and the combined
// plan+daemon ledger must balance exactly — every packet handed to Send
// ends in delivered, deduped, or an accounted drop bucket.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const (
		n, deg, k = 16, 4, 2
		maxTicks  = 80
	)
	half := make([]int, n/2)
	for i := range half {
		half[i] = i
	}
	cases := []struct {
		name      string
		cfg       FaultConfig
		wantFault func(FaultStats) bool // the regime must actually fire
		wireLoss  bool                  // severed conns may strand written frames
	}{
		{
			name:      "drop20",
			cfg:       FaultConfig{Seed: 90, Drop: 0.20},
			wantFault: func(s FaultStats) bool { return s.Dropped > 0 },
		},
		{
			name:      "delay",
			cfg:       FaultConfig{Seed: 91, DelayProb: 0.30, Delay: 2 * time.Millisecond},
			wantFault: func(s FaultStats) bool { return s.Delayed > 0 },
		},
		{
			name:      "partition-heal",
			cfg:       FaultConfig{Seed: 92, Partitions: []PartitionWindow{{From: 1, Until: 5, A: half}}},
			wantFault: func(s FaultStats) bool { return s.PartitionDrops > 0 },
		},
		{
			name:      "crash-restart",
			cfg:       FaultConfig{Seed: 93, Crashes: []CrashWindow{{Node: 3, From: 1, Until: 4}}},
			wantFault: func(s FaultStats) bool { return s.CrashDrops > 0 },
			wireLoss:  true,
		},
		{
			name: "everything",
			cfg: FaultConfig{
				Seed: 94, Drop: 0.20, Duplicate: 0.05, Reorder: 0.10,
				DelayProb: 0.10, Delay: time.Millisecond,
				Partitions: []PartitionWindow{{From: 2, Until: 4, A: half}},
				Crashes:    []CrashWindow{{Node: 5, From: 1, Until: 3}},
			},
			wantFault: func(s FaultStats) bool { return s.Dropped > 0 && s.Duplicated > 0 },
			wireLoss:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := gossipGraph(t, n, deg)
			d, err := NewDaemon(DaemonConfig{
				Nodes: n, Mailbox: 8192, Seed: 5,
				BackoffBase: 5 * time.Millisecond, BackoffMax: 25 * time.Millisecond,
				DedupExpiry: time.Minute,
			})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := NewFaultPlan(d, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(g, plan, k, 46)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { _ = c.Close() }()
			const rumorID = "chaos-rumor"
			if err := c.Insert(0, Rumor{ID: rumorID, Payload: "survives faults"}); err != nil {
				t.Fatal(err)
			}
			ticks := 0
			for tick := 1; tick <= maxTicks; tick++ {
				plan.AdvanceEpoch() // one tick = one fault epoch
				if err := c.Tick(); err != nil {
					t.Fatal(err)
				}
				// Let the tick's packets drain before counting knowers.
				spreadDeadline := time.Now().Add(stepWait(t, 250*time.Millisecond))
				for time.Now().Before(spreadDeadline) && c.CountKnowing(rumorID) < n {
					time.Sleep(2 * time.Millisecond)
				}
				ticks = tick
				if c.CountKnowing(rumorID) == n {
					break
				}
			}
			if know := c.CountKnowing(rumorID); know != n {
				t.Fatalf("%s: rumour reached %d/%d nodes in %d ticks", tc.name, know, n, ticks)
			}
			settleHealth(t, plan)
			if err := c.Close(); err != nil { // closes plan, then daemon
				t.Fatal(err)
			}
			h := plan.Health()
			js, _ := json.Marshal(h)
			t.Logf("%s: all %d nodes informed in %d ticks; health=%s", tc.name, n, ticks, js)
			if h.Faults == nil {
				t.Fatal("fault ledger missing from health snapshot")
			}
			if !tc.wantFault(*h.Faults) {
				t.Errorf("%s: fault regime never fired: %+v", tc.name, *h.Faults)
			}
			// The ledger: sent = delivered + deduped + dropped, exactly.
			if gap := h.LedgerGap(); gap != 0 {
				t.Errorf("%s: LedgerGap = %d, want 0 (faults %+v)", tc.name, gap, *h.Faults)
			}
			if !tc.wireLoss && h.WireLost() != 0 {
				t.Errorf("%s: WireLost = %d with no severed connections, want 0", tc.name, h.WireLost())
			}
		})
	}
}

// TestChaosSoakCrashExercisesRedial pins the crash-restart acceptance
// detail: severing the crashed node's connection forces the dial
// scheduler to re-establish it after the restart.
func TestChaosSoakCrashExercisesRedial(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak in -short mode")
	}
	const crashUntil = 4
	g := gossipGraph(t, 8, 4)
	d, err := NewDaemon(DaemonConfig{
		Nodes: 8, Mailbox: 4096, Seed: 5,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 25 * time.Millisecond,
		DedupExpiry: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// From: 2, not 1 — tick 1 runs fault-free so persistent connections to
	// node 2 exist before the crash severs them.
	plan, err := NewFaultPlan(d, FaultConfig{
		Seed:    95,
		Crashes: []CrashWindow{{Node: 2, From: 2, Until: crashUntil}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, plan, 2, 47)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0, Rumor{ID: "redial-rumor"}); err != nil {
		t.Fatal(err)
	}
	// Tick through epoch Until+2 even once the rumour has spread: node 2
	// may learn it through its own fresh outbound dial, and then only a
	// later send to node 2 redials. Each tick waits (bounded) until a
	// redial has happened or its frames have settled — every packet
	// accounted and written == decoded — instead of sleeping a fixed
	// interval.
	for tick := 1; tick <= 40 && (tick <= crashUntil+2 || c.CountKnowing("redial-rumor") < 8); tick++ {
		plan.AdvanceEpoch()
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(stepWait(t, time.Second))
		for time.Now().Before(deadline) {
			if h := plan.Health(); h.Redials > 0 || h.LedgerGap() == 0 && h.Written == h.FramesIn {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if know := c.CountKnowing("redial-rumor"); know != 8 {
		t.Fatalf("rumour reached %d/8 nodes despite crash-restart", know)
	}
	settleHealth(t, plan)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	h := plan.Health()
	if h.Redials == 0 {
		t.Errorf("crash-restart exercised zero redials (dials %d)", h.Dials)
	}
	if gap := h.LedgerGap(); gap != 0 {
		t.Errorf("LedgerGap = %d, want 0", gap)
	}
}
