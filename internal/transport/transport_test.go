package transport

import (
	"errors"
	"testing"
	"time"

	"regcast/internal/graph"
	"regcast/internal/xrand"
)

// stepWait returns the budget for one blocking wait, honouring the test
// binary's -timeout through t.Deadline: the default is clamped so a stuck
// wait fails this test with slack before the whole binary is killed.
func stepWait(t *testing.T, def time.Duration) time.Duration {
	t.Helper()
	if dl, ok := t.Deadline(); ok {
		if remain := time.Until(dl) - 250*time.Millisecond; remain < def {
			if remain < 10*time.Millisecond {
				return 10 * time.Millisecond
			}
			return remain
		}
	}
	return def
}

// waitCond polls cond until it holds or the deadline-aware budget runs
// out, failing the test with msg on timeout.
func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(stepWait(t, 2*time.Second))
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached: %s", msg)
}

func TestKindString(t *testing.T) {
	if KindPush.String() != "push" || KindPullRequest.String() != "pull-request" ||
		KindPullReply.String() != "pull-reply" {
		t.Error("kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestInMemValidation(t *testing.T) {
	if _, err := NewInMem(0, 8); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewInMem(4, 0); err == nil {
		t.Error("mailbox=0 accepted")
	}
}

func TestInMemSendReceive(t *testing.T) {
	tr, err := NewInMem(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if err := tr.Send(2, Packet{From: 0, Kind: KindPush, Rumors: []Rumor{{ID: "r1", Payload: "x"}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-tr.Inbox(2):
		if p.From != 0 || p.To != 2 || p.Kind != KindPush || len(p.Rumors) != 1 {
			t.Errorf("packet mangled: %+v", p)
		}
	case <-time.After(stepWait(t, time.Second)):
		t.Fatal("packet not delivered")
	}
}

func TestInMemSendErrors(t *testing.T) {
	tr, err := NewInMem(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(5, Packet{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	// Overfill: second send is dropped silently, recorded in Dropped.
	if err := tr.Send(0, Packet{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, Packet{}); err != nil {
		t.Fatal(err)
	}
	if tr.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", tr.Dropped)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, Packet{}); !errors.Is(err, ErrClosed) {
		t.Errorf("send after close = %v, want ErrClosed", err)
	}
	if err := tr.Close(); err != nil {
		t.Error("double close errored")
	}
}

func TestInMemCloseClosesInboxes(t *testing.T) {
	tr, err := NewInMem(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if _, open := <-tr.Inbox(0); open {
		t.Error("inbox still open after Close")
	}
}

func gossipGraph(t *testing.T, n, d int) *graph.Graph {
	t.Helper()
	g, err := graph.RandomRegular(n, d, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestClusterValidation(t *testing.T) {
	g := gossipGraph(t, 8, 4)
	tr, err := NewInMem(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tr.Close() }()
	if _, err := NewCluster(nil, tr, 2, 1); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := NewCluster(g, nil, 2, 1); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewCluster(g, tr, 0, 1); err == nil {
		t.Error("k=0 accepted")
	}
}

// driveUntilAllKnow ticks the cluster until every node knows the rumour or
// the deadline passes, returning the number of ticks used.
func driveUntilAllKnow(t *testing.T, c *Cluster, id string, maxTicks int) int {
	t.Helper()
	for tick := 1; tick <= maxTicks; tick++ {
		if err := c.Tick(); err != nil {
			t.Fatal(err)
		}
		deadline := time.After(stepWait(t, time.Second))
		for c.CountKnowing(id) < c.Size() {
			select {
			case <-deadline:
				// settle this tick; go to next
				deadline = nil
			case <-time.After(time.Millisecond):
			}
			if deadline == nil {
				break
			}
		}
		if c.CountKnowing(id) == c.Size() {
			return tick
		}
	}
	t.Fatalf("rumour %q reached %d/%d nodes after %d ticks", id, c.CountKnowing(id), c.Size(), maxTicks)
	return 0
}

func TestGossipOverInMem(t *testing.T) {
	g := gossipGraph(t, 32, 6)
	tr, err := NewInMem(32, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, tr, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(0, Rumor{ID: "update-1", Payload: "hello"}); err != nil {
		t.Fatal(err)
	}
	ticks := driveUntilAllKnow(t, c, "update-1", 40)
	t.Logf("rumour reached all 32 nodes in %d ticks, %d packets", ticks, c.PacketsSent())
	if c.PacketsSent() == 0 {
		t.Error("no packets counted")
	}
	if !c.Node(31).Knows("update-1") {
		t.Error("node 31 missing rumour despite count")
	}
}

func TestInsertValidation(t *testing.T) {
	g := gossipGraph(t, 8, 4)
	tr, err := NewInMem(8, 64)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, tr, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Insert(-1, Rumor{ID: "x"}); err == nil {
		t.Error("negative node accepted")
	}
	if err := c.Insert(99, Rumor{ID: "x"}); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestMultipleRumorsConverge(t *testing.T) {
	g := gossipGraph(t, 16, 4)
	tr, err := NewInMem(16, 8192)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(g, tr, 2, 44)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	ids := []string{"a", "b", "c"}
	for i, id := range ids {
		if err := c.Insert(i*5, Rumor{ID: id, Payload: id}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range ids {
		driveUntilAllKnow(t, c, id, 60)
	}
	for _, n := range []int{0, 7, 15} {
		if got := len(c.Node(n).Known()); got != len(ids) {
			t.Errorf("node %d knows %d rumours, want %d", n, got, len(ids))
		}
	}
}
