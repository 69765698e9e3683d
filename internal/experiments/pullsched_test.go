package experiments

import (
	"testing"

	"p2pcollect/internal/pullsched"
)

func TestPullPolicyTableFeedbackPoliciesBeatBlind(t *testing.T) {
	tbl, err := PullPolicyTable(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Row 1 of each series is the redundant-pull fraction; the feedback
	// policy must come in strictly below the blind baseline at the same
	// seed — the subsystem's acceptance bar.
	redundant := map[string]float64{}
	for _, s := range tbl.Series() {
		if len(s.Points) == 0 || s.Points[0].X != 1 {
			t.Fatalf("series %q: first row is not the redundant fraction", s.Name)
		}
		redundant[s.Name] = s.Points[0].Y
	}
	blind, ok := redundant[pullsched.NameBlind]
	if !ok {
		t.Fatalf("no blind series; got %v", redundant)
	}
	rarest, ok := redundant[pullsched.NameRarestFirst]
	if !ok {
		t.Fatalf("no rarest series; got %v", redundant)
	}
	if rarest >= blind {
		t.Errorf("rarest redundant fraction %.4f, want < blind %.4f", rarest, blind)
	}
}
