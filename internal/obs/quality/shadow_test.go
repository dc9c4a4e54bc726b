package quality

import (
	"errors"
	"math"
	"sync"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

func TestShadowNilIsOff(t *testing.T) {
	var s *Shadow
	s.Offer(1, 2, 0.5) // must not panic
	s.Close()
	if s.Checked() != 0 || s.WorstAbsErr() != 0 {
		t.Error("nil shadow should report zeros")
	}
	if s.Sample() {
		t.Error("nil shadow sampled an offer")
	}
}

// TestShadowSkipsWithoutReference: a sampled result with no reference to
// verify against — Check with a nil scorer, or Offer on a verifier built
// without a Scorer — is counted as skipped, never queued, and the four
// outcome counters still sum to the sampled offers.
func TestShadowSkipsWithoutReference(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewShadow(ShadowConfig{Rate: 2, Metrics: reg})
	ref := func(u, v hin.NodeID) (float64, error) { return 0.5, nil }
	for i := 0; i < 8; i++ {
		if s.Sample() {
			var scorer func(u, v hin.NodeID) (float64, error)
			if i%4 == 1 {
				scorer = ref
			}
			s.Check(hin.NodeID(i), 0, 0.5, scorer)
		}
	}
	s.Offer(0, 1, 0.5)
	s.Offer(0, 1, 0.5) // sampled, and skipped: no configured Scorer
	s.Close()
	c := reg.Snapshot().Counters
	checked, skipped := c["semsim_shadow_checked_total"], c["semsim_shadow_skipped_total"]
	if checked != 2 || skipped != 3 {
		t.Errorf("checked %d, skipped %d; want 2 and 3", checked, skipped)
	}
	if sum := checked + skipped + c["semsim_shadow_dropped_total"] + c["semsim_shadow_errors_total"]; sum != 5 {
		t.Errorf("outcome counters sum to %d, want the 5 sampled offers", sum)
	}
}

func TestShadowSamplesAtRate(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	verified := 0
	s := NewShadow(ShadowConfig{
		Rate: 4,
		Scorer: func(u, v hin.NodeID) (float64, error) {
			mu.Lock()
			verified++
			mu.Unlock()
			return 0.5, nil
		},
		Metrics: reg,
	})
	for i := 0; i < 100; i++ {
		s.Offer(hin.NodeID(i), hin.NodeID(i+1), 0.5)
	}
	s.Close() // drains the queue
	mu.Lock()
	got := verified
	mu.Unlock()
	if got != 25 {
		t.Errorf("rate 4 over 100 offers: verified %d, want 25", got)
	}
	if c := s.Checked(); c != 25 {
		t.Errorf("Checked() = %d, want 25", c)
	}
	snap := reg.Snapshot()
	if snap.Counters["semsim_shadow_checked_total"] != 25 {
		t.Errorf("checked counter = %d, want 25", snap.Counters["semsim_shadow_checked_total"])
	}
	if h := snap.Histograms["semsim_shadow_abs_err"]; h.Count != 25 {
		t.Errorf("abs_err histogram count = %d, want 25", h.Count)
	}
}

func TestShadowDriftSeverities(t *testing.T) {
	reg := obs.NewRegistry()
	// Reference always says 0.5; estimates drift by varying amounts.
	s := NewShadow(ShadowConfig{
		Rate:          1,
		Scorer:        func(u, v hin.NodeID) (float64, error) { return 0.5, nil },
		WarnThreshold: 0.05,
		CritThreshold: 0.1,
		Metrics:       reg,
	})
	s.Offer(0, 1, 0.5)  // exact: no drift
	s.Offer(0, 2, 0.52) // 0.02: below warn
	s.Offer(0, 3, 0.58) // 0.08: warn
	s.Offer(0, 4, 0.75) // 0.25: critical
	s.Close()
	snap := reg.Snapshot()
	if got := snap.Counters[obs.SeriesName("semsim_shadow_drift_total", "severity", "warn")]; got != 1 {
		t.Errorf("warn drift = %d, want 1", got)
	}
	if got := snap.Counters[obs.SeriesName("semsim_shadow_drift_total", "severity", "critical")]; got != 1 {
		t.Errorf("critical drift = %d, want 1", got)
	}
	if w := s.WorstAbsErr(); math.Abs(w-0.25) > 1e-12 {
		t.Errorf("WorstAbsErr = %v, want 0.25", w)
	}
	if g := snap.Gauges["semsim_shadow_worst_abs_err"]; math.Abs(g-0.25) > 1e-12 {
		t.Errorf("worst gauge = %v, want 0.25", g)
	}
}

func TestShadowWorstErrWindowRolls(t *testing.T) {
	s := NewShadow(ShadowConfig{
		Rate:   1,
		Window: 4,
		Scorer: func(u, v hin.NodeID) (float64, error) { return 0, nil },
	})
	// First window: worst 0.9. Two more full windows of small errors
	// must age the 0.9 out (two-epoch retention).
	s.Offer(0, 1, 0.9)
	for i := 0; i < 11; i++ {
		s.Offer(0, 1, 0.01)
	}
	s.Close()
	if w := s.WorstAbsErr(); w > 0.011 {
		t.Errorf("worst error %v did not age out after two windows", w)
	}
}

func TestShadowScorerErrors(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewShadow(ShadowConfig{
		Rate:    1,
		Scorer:  func(u, v hin.NodeID) (float64, error) { return 0, errors.New("boom") },
		Metrics: reg,
	})
	s.Offer(0, 1, 0.5)
	s.Close()
	snap := reg.Snapshot()
	if got := snap.Counters["semsim_shadow_errors_total"]; got != 1 {
		t.Errorf("errors counter = %d, want 1", got)
	}
	if got := snap.Counters["semsim_shadow_checked_total"]; got != 0 {
		t.Errorf("checked counter = %d, want 0 (failed verification)", got)
	}
}

func TestShadowDropsWhenQueueFull(t *testing.T) {
	reg := obs.NewRegistry()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	s := NewShadow(ShadowConfig{
		Rate:      1,
		QueueSize: 2,
		Scorer: func(u, v hin.NodeID) (float64, error) {
			select {
			case entered <- struct{}{}:
			default:
			}
			<-block
			return 0, nil
		},
		Metrics: reg,
	})
	s.Offer(0, 1, 0.5) // worker picks this up and blocks
	<-entered
	s.Offer(0, 2, 0.5) // fills queue slot 1
	s.Offer(0, 3, 0.5) // fills queue slot 2
	s.Offer(0, 4, 0.5) // queue full: dropped
	s.Offer(0, 5, 0.5) // dropped
	if got := reg.Snapshot().Counters["semsim_shadow_dropped_total"]; got != 2 {
		t.Errorf("dropped counter = %d, want 2", got)
	}
	close(block)
	s.Close()
	if got := s.Checked(); got != 3 {
		t.Errorf("checked = %d, want 3 (queued samples drained on Close)", got)
	}
}

func TestShadowOfferDoesNotAllocate(t *testing.T) {
	s := NewShadow(ShadowConfig{
		Rate:      2,
		QueueSize: 4096,
		Scorer:    func(u, v hin.NodeID) (float64, error) { return 0, nil },
		Metrics:   obs.NewRegistry(),
	})
	defer s.Close()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Offer(1, 2, 0.5)
	})
	if allocs != 0 {
		t.Errorf("Offer allocates %v per call, want 0", allocs)
	}
	var nilShadow *Shadow
	allocs = testing.AllocsPerRun(1000, func() {
		nilShadow.Offer(1, 2, 0.5)
	})
	if allocs != 0 {
		t.Errorf("nil Offer allocates %v per call, want 0", allocs)
	}
}
