package main

import (
	"bytes"
	"context"
	"testing"

	"regcast"
)

// TestPopulationsGridDeterministicAcrossRepWorkers runs a shrunk
// populations grid at ReplicationWorkers 0, 1 and 4 and requires the
// serialised reports to be byte-identical — the determinism contract the
// bench output rests on, extended to the interaction scheduler.
func TestPopulationsGridDeterministicAcrossRepWorkers(t *testing.T) {
	g := grid{
		reps: 3,
		axes: []regcast.Axis{populationAxis([]int{128, 256}, 51, []int{3, 5}, 256, []float64{0.6})},
	}
	var want []byte
	for i, workers := range []int{0, 1, 4} {
		sweep := newSweep("populations-test", g, 7, g.reps, workers, regcast.NewRunner(), false)
		report, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf.Bytes()
			if len(report.Cells) != 5 {
				t.Fatalf("%d cells, want 5", len(report.Cells))
			}
			for _, c := range report.Cells {
				if c.Completed == 0 {
					t.Fatalf("cell %s: no replication converged", c.Label)
				}
			}
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("rep-workers=%d report differs from rep-workers=0:\n%s\nvs\n%s", workers, buf.Bytes(), want)
		}
	}
}

// TestPopulationsGridGolden pins a shrunk populations grid's folded
// means and completion counts, so a drift in how population replications
// are seeded, run or folded fails here rather than in the bench output.
func TestPopulationsGridGolden(t *testing.T) {
	g := grid{
		reps: 3,
		axes: []regcast.Axis{populationAxis([]int{128, 256}, 51, []int{3, 5}, 256, []float64{0.6})},
	}
	want := []struct {
		label     string
		rounds    float64
		tx        float64
		completed int
	}{
		{"workload=leader-n128", 4.666666666666667, 597.3333333333334, 3},
		{"workload=leader-n256", 4.333333333333333, 1109.3333333333333, 3},
		{"workload=herman-n51-k3", 321, 16371, 3},
		{"workload=herman-n51-k5", 294, 14994, 3},
		{"workload=majority-n256-x60", 12.666666666666666, 3242.6666666666665, 3},
	}
	report, err := newSweep("populations-golden", g, 7, g.reps, 0, regcast.NewRunner(), false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(report.Cells), len(want))
	}
	for i, w := range want {
		c := report.Cells[i]
		if c.Label != w.label || c.Rounds.Mean != w.rounds || c.Transmissions.Mean != w.tx || c.Completed != w.completed {
			t.Errorf("cell %d: got %s rounds=%v tx=%v completed=%d, want %s rounds=%v tx=%v completed=%d",
				i, c.Label, c.Rounds.Mean, c.Transmissions.Mean, c.Completed, w.label, w.rounds, w.tx, w.completed)
		}
	}
}

// TestBroadcastGridStillDeterministic guards the pre-existing grids'
// byte-determinism through the factored-out sweep constructor.
func TestBroadcastGridStillDeterministic(t *testing.T) {
	g := grid{
		reps: 2,
		axes: []regcast.Axis{regcast.Vals("n", 128), protoAxis("push")},
		def:  cellDefaults{d: 8, proto: protocols["push"]},
	}
	var want []byte
	for i, workers := range []int{0, 4} {
		sweep := newSweep("ci-test", g, 3, g.reps, workers, regcast.NewRunner(), false)
		report, err := sweep.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("rep-workers=%d report differs from rep-workers=0", workers)
		}
	}
}
