package sched

import "testing"

// TestControllerPromotesAfterPatience: the controller ignores
// imbalance spikes shorter than its patience window and fires exactly
// once when the threshold holds.
func TestControllerPromotesAfterPatience(t *testing.T) {
	var c Controller
	// Patience-1 breaches, then a calm run: streak must reset.
	for i := 0; i < DefaultPatience-1; i++ {
		if c.Observe(1.5) {
			t.Fatalf("promoted after %d breaches, patience is %d", i+1, DefaultPatience)
		}
	}
	if c.Observe(1.0) {
		t.Fatal("promoted on a balanced run")
	}
	// Patience consecutive breaches: fires on the last one, not before.
	for i := 0; i < DefaultPatience-1; i++ {
		if c.Observe(1.3) {
			t.Fatal("promoted before patience expired: the calm run did not reset the streak")
		}
	}
	if !c.Observe(1.3) {
		t.Fatal("did not promote after patience consecutive breaches")
	}
	if !c.Promoted() {
		t.Fatal("Promoted() false after firing")
	}
}

// TestControllerNeverThrashes pins the one-way ratchet: after
// promotion, no observation — however balanced or however skewed —
// produces another transition. Stealing lowers the measured imbalance,
// so a symmetric controller would demote and re-promote forever; the
// ratchet makes the post-promotion signal inert.
func TestControllerNeverThrashes(t *testing.T) {
	var c Controller
	for i := 1; i < DefaultPatience; i++ {
		c.Observe(2.0)
	}
	if !c.Observe(2.0) {
		t.Fatal("controller did not promote after patience breaches")
	}
	for _, imb := range []float64{0.9, 1.0, 5.0, 1.0, 3.0} {
		if c.Observe(imb) {
			t.Fatalf("controller fired again at imbalance %v after promotion", imb)
		}
	}
	if !c.Promoted() {
		t.Fatal("ratchet lost its promoted state")
	}
}

// TestControllerDefaults: the zero controller uses the documented
// thresholds and behaves sanely at the threshold boundary.
func TestControllerDefaults(t *testing.T) {
	var c Controller
	for i := 0; i < DefaultPatience-1; i++ {
		if c.Observe(DefaultPromoteAbove) {
			t.Fatalf("promoted after %d runs, patience is %d", i+1, DefaultPatience)
		}
	}
	if !c.Observe(DefaultPromoteAbove) {
		t.Fatal("threshold breach at exactly PromoteAbove did not count")
	}
	// Balanced work never promotes.
	c = Controller{}
	for i := 0; i < 100; i++ {
		if c.Observe(1.0) {
			t.Fatal("balanced runs promoted")
		}
	}
}
