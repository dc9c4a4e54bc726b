package quality

import (
	"math"
	"sync/atomic"

	"semsim/internal/hin"
	"semsim/internal/obs"
)

// Default shadow-verifier parameters.
const (
	// DefaultShadowRate re-scores one query in 256 — cheap enough to run
	// permanently yet enough volume to see drift within minutes at
	// production QPS.
	DefaultShadowRate = 256

	// DefaultShadowQueue bounds the hot-path→worker channel; a full
	// queue drops the sample (counted) instead of blocking the query.
	DefaultShadowQueue = 256

	// defaultWorstWindow is how many verified samples a worst-case-error
	// epoch spans before the rolling maximum resets (two epochs are kept,
	// so the gauge always reflects at least one full window).
	defaultWorstWindow = 1024
)

// ShadowConfig configures a Shadow verifier.
type ShadowConfig struct {
	// Rate is the sampling denominator: 1 of every Rate offered queries
	// is verified. Values < 1 default to DefaultShadowRate.
	Rate int

	// Scorer re-scores a pair on the reference backend Offer verifies
	// against (Check takes the reference per sample instead). Called
	// only on the worker goroutine, never on the hot path. Nil counts
	// every sampled Offer as skipped.
	Scorer func(u, v hin.NodeID) (float64, error)

	// WarnThreshold and CritThreshold classify absolute errors into the
	// semsim_shadow_drift_total{severity=...} counters. A sample with
	// |est-ref| > CritThreshold counts as critical, > WarnThreshold as
	// warn. Zero values disable that severity class.
	WarnThreshold float64
	CritThreshold float64

	// QueueSize bounds the pending-sample queue (< 1 defaults to
	// DefaultShadowQueue). Window is the worst-case-error epoch length
	// in samples (< 1 defaults to 1024).
	QueueSize int
	Window    int

	// Metrics receives the semsim_shadow_* instruments (nil = unmetered,
	// the verifier still runs).
	Metrics *obs.Registry
}

// shadowSample is the value sent from the hot path to the worker. A
// value struct on a buffered channel: the send copies into the channel's
// ring buffer, no per-sample allocation.
type shadowSample struct {
	u, v  hin.NodeID
	score float64
	// scorer is the reference this sample is verified against. An
	// epoch-snapshot facade pins each sample to the reference of the
	// epoch that produced the estimate (Check), so samples queued across
	// a commit are never verified against a different graph's truth.
	scorer func(u, v hin.NodeID) (float64, error)
}

// Shadow re-scores a sampled fraction of live queries on a reference
// backend off the hot path and exports the observed absolute error,
// turning the estimator's theoretical error envelope into a measurable
// SLO. A nil *Shadow ignores all calls (the nil-is-off convention), so
// the hot-path cost of a disabled verifier is one branch.
//
// Hot-path contract: Offer (or Sample then Check) is one atomic add, a
// modulo, and — for the sampled 1/Rate fraction — a non-blocking
// channel send of a value struct, or a counter bump when the sample has
// no reference to be verified against. It never blocks, never
// allocates, and never changes the score it is handed (shadowing
// observes, never perturbs). Every sampled offer lands in exactly one of
// the checked, dropped, skipped and errors counters.
type Shadow struct {
	rate  uint64
	queue chan shadowSample
	stop  chan struct{}
	done  chan struct{}

	scorer func(u, v hin.NodeID) (float64, error)
	warn   float64
	crit   float64
	window uint64

	offered atomic.Uint64 // all Offer calls, for the 1/rate sampler

	// Rolling worst-case |err| over the last one-to-two windows: two
	// epoch slots hold CAS-maxed float bits; every window samples the
	// older slot is reset. The gauge reports max(cur, prev).
	epochN    atomic.Uint64
	worstCur  atomic.Uint64 // float64 bits
	worstPrev atomic.Uint64 // float64 bits

	checked *obs.Counter
	dropped *obs.Counter
	skipped *obs.Counter
	errors  *obs.Counter
	warns   *obs.Counter
	crits   *obs.Counter
	absErr  *obs.Histogram
}

// NewShadow starts a shadow verifier with one background worker.
// Callers must Close it to stop the worker and drain pending samples.
func NewShadow(cfg ShadowConfig) *Shadow {
	if cfg.Rate < 1 {
		cfg.Rate = DefaultShadowRate
	}
	if cfg.QueueSize < 1 {
		cfg.QueueSize = DefaultShadowQueue
	}
	if cfg.Window < 1 {
		cfg.Window = defaultWorstWindow
	}
	s := &Shadow{
		rate:   uint64(cfg.Rate),
		queue:  make(chan shadowSample, cfg.QueueSize),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		scorer: cfg.Scorer,
		warn:   cfg.WarnThreshold,
		crit:   cfg.CritThreshold,
		window: uint64(cfg.Window),
	}
	if r := cfg.Metrics; r != nil {
		s.checked = r.Counter("semsim_shadow_checked_total",
			"Live queries re-scored on the reference backend by the shadow verifier.")
		s.dropped = r.Counter("semsim_shadow_dropped_total",
			"Sampled queries dropped because the shadow verification queue was full.")
		s.skipped = r.Counter("semsim_shadow_skipped_total",
			"Sampled queries not verified because their index epoch had no shadow reference (yet).")
		s.errors = r.Counter("semsim_shadow_errors_total",
			"Shadow verifications that failed on the reference backend.")
		s.warns = r.Counter(obs.SeriesName("semsim_shadow_drift_total", "severity", "warn"),
			"Shadow verifications whose absolute error exceeded a drift threshold, by severity.")
		s.crits = r.Counter(obs.SeriesName("semsim_shadow_drift_total", "severity", "critical"),
			"Shadow verifications whose absolute error exceeded a drift threshold, by severity.")
		s.absErr = r.Histogram("semsim_shadow_abs_err",
			"Absolute error |estimate - reference| observed by the shadow verifier.",
			ErrorBuckets)
		r.GaugeFunc("semsim_shadow_worst_abs_err",
			"Rolling worst-case absolute error over the last shadow window.",
			s.WorstAbsErr)
		r.GaugeFunc("semsim_shadow_queue_depth",
			"Shadow verification samples currently waiting for the worker.",
			func() float64 { return float64(len(s.queue)) })
	}
	go s.run()
	return s
}

// Offer hands the verifier one live query result, verified against the
// configured Scorer. Every Rate-th call is enqueued for re-scoring; the
// rest — and every call on a nil or closed verifier — return
// immediately.
func (s *Shadow) Offer(u, v hin.NodeID, score float64) {
	if s.Sample() {
		s.Check(u, v, score, s.scorer)
	}
}

// Sample advances the 1-in-Rate sampler and reports whether this offer
// is the one to verify (always false on a nil verifier).
func (s *Shadow) Sample() bool {
	return s != nil && s.offered.Add(1)%s.rate == 0
}

// Check queues a sampled result for verification against scorer. A nil
// scorer — the result's index epoch has no reference yet — counts the
// sample as skipped, and a full queue drops it; neither blocks. Callers
// pass a func value built once per reference (not a fresh closure per
// call) to keep the hot path allocation-free.
func (s *Shadow) Check(u, v hin.NodeID, score float64, scorer func(u, v hin.NodeID) (float64, error)) {
	if scorer == nil {
		s.skipped.Inc()
		return
	}
	select {
	case s.queue <- shadowSample{u: u, v: v, score: score, scorer: scorer}:
	default:
		s.dropped.Inc()
	}
}

// Close stops the worker after draining already-queued samples. Safe to
// call on nil; must not race with Offer senders that are mid-send
// (the facade stops routing queries before closing).
func (s *Shadow) Close() {
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

func (s *Shadow) run() {
	defer close(s.done)
	for {
		select {
		case smp := <-s.queue:
			s.verify(smp)
		case <-s.stop:
			for {
				select {
				case smp := <-s.queue:
					s.verify(smp)
				default:
					return
				}
			}
		}
	}
}

func (s *Shadow) verify(smp shadowSample) {
	ref, err := smp.scorer(smp.u, smp.v)
	if err != nil {
		s.errors.Inc()
		return
	}
	s.checked.Inc()
	abs := math.Abs(smp.score - ref)
	s.absErr.Observe(abs)
	if s.crit > 0 && abs > s.crit {
		s.crits.Inc()
	} else if s.warn > 0 && abs > s.warn {
		s.warns.Inc()
	}
	s.recordWorst(abs)
}

// recordWorst folds abs into the two-epoch rolling maximum. Only the
// single worker goroutine advances epochs, so the rotate is a plain
// store pair; readers (the gauge func) observe monotone float bits.
func (s *Shadow) recordWorst(abs float64) {
	n := s.epochN.Add(1)
	if n%s.window == 0 {
		s.worstPrev.Store(s.worstCur.Load())
		s.worstCur.Store(0)
	}
	bits := math.Float64bits(abs)
	for {
		old := s.worstCur.Load()
		// Non-negative float64s order the same as their bit patterns.
		if bits <= old {
			return
		}
		if s.worstCur.CompareAndSwap(old, bits) {
			return
		}
	}
}

// WorstAbsErr returns the largest absolute error seen over the last
// one-to-two windows (0 on nil or before any verification).
func (s *Shadow) WorstAbsErr() float64 {
	if s == nil {
		return 0
	}
	cur := math.Float64frombits(s.worstCur.Load())
	prev := math.Float64frombits(s.worstPrev.Load())
	return math.Max(cur, prev)
}

// Checked returns how many samples have been verified so far (0 on a
// nil or unmetered verifier) — a test and introspection hook.
func (s *Shadow) Checked() int64 {
	if s == nil {
		return 0
	}
	return s.checked.Value()
}
