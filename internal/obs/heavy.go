package obs

import "sync"

// HeavyHitters tracks the top-N most expensive keys (source nodes, in
// the serving layer) by cumulative cost, using the space-saving sketch
// (Metwally et al.): a fixed-capacity table where a miss on a full table
// evicts the minimum-count entry and inherits its count as the new
// entry's error bound. Observed counts therefore over-estimate by at
// most Err per entry, and any key whose true cumulative cost exceeds the
// minimum tracked count is guaranteed to be present — exactly the
// guarantee an "expensive nodes" debug endpoint needs.
//
// The entries live in a fixed slice with a key -> slot index; an
// eviction rescans the slice for the minimum and reuses its slot, so
// Observe allocates nothing once the table is full, even when uniform
// traffic misses it on almost every call. Observations take a mutex;
// at serving request rates (one Observe per HTTP request, capacity ~64)
// this is noise, and the hot query path itself never touches the
// tracker. Nil is off.
type HeavyHitters struct {
	mu       sync.Mutex
	entries  []HeavyEntry     // capacity fixed at construction
	slot     map[string]int32 // key -> index into entries
	observed Counter
	evicted  Counter
}

// HeavyEntry is one reported heavy hitter. Count over-estimates the true
// cumulative cost by at most Err (space-saving error bound).
type HeavyEntry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err"`
}

// NewHeavyHitters builds a tracker holding at most capacity keys
// (capacity <= 0 returns nil — the disabled state). When r is non-nil
// the tracker registers its own health series: tracked-key gauge,
// observation and eviction totals.
func NewHeavyHitters(capacity int, r *Registry) *HeavyHitters {
	if capacity <= 0 {
		return nil
	}
	h := &HeavyHitters{
		entries: make([]HeavyEntry, 0, capacity),
		slot:    make(map[string]int32, capacity),
	}
	if r != nil {
		r.GaugeFunc("semsim_heavy_tracked_keys",
			"Keys currently tracked by the heavy-hitters sketch",
			func() float64 {
				h.mu.Lock()
				defer h.mu.Unlock()
				return float64(len(h.entries))
			})
		r.GaugeFunc("semsim_heavy_observations_total",
			"Cost observations folded into the heavy-hitters sketch",
			func() float64 { return float64(h.observed.Value()) })
		r.GaugeFunc("semsim_heavy_evictions_total",
			"Space-saving evictions from the heavy-hitters sketch",
			func() float64 { return float64(h.evicted.Value()) })
	}
	return h
}

// Observe adds cost (a Cost.Work scalar, or any nonnegative weight) to
// key's cumulative count. No-op on nil or when cost <= 0 — zero-work
// observations carry no ranking signal and would churn the table.
func (h *HeavyHitters) Observe(key string, cost int64) {
	if h == nil || cost <= 0 || key == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observed.Add(1)
	if i, ok := h.slot[key]; ok {
		h.entries[i].Count += cost
		return
	}
	if len(h.entries) < cap(h.entries) {
		h.slot[key] = int32(len(h.entries))
		h.entries = append(h.entries, HeavyEntry{Key: key, Count: cost})
		return
	}
	// Space-saving eviction: replace the minimum-count entry (ties to
	// the smaller key); the new key inherits its count as an upper
	// error bound. Linear scan is fine at the capacities this tracker
	// runs at (~64).
	m := 0
	for i := 1; i < len(h.entries); i++ {
		e, low := &h.entries[i], &h.entries[m]
		if e.Count < low.Count || (e.Count == low.Count && e.Key < low.Key) {
			m = i
		}
	}
	victim := h.entries[m]
	h.evicted.Add(1)
	delete(h.slot, victim.Key)
	h.slot[key] = int32(m)
	h.entries[m] = HeavyEntry{Key: key, Count: victim.Count + cost, Err: victim.Count}
}

// Top returns up to n entries in descending count order (ties broken by
// key for determinism). Returns nil on a nil tracker.
func (h *HeavyHitters) Top(n int) []HeavyEntry {
	if h == nil || n <= 0 {
		return nil
	}
	h.mu.Lock()
	out := make([]HeavyEntry, len(h.entries))
	copy(out, h.entries)
	h.mu.Unlock()
	// Insertion sort: capacity is small and Top runs off the hot path.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	if len(out) > n {
		out = out[:n]
	}
	return out
}

func less(a, b HeavyEntry) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Key < b.Key
}

// Len reports the number of tracked keys (0 on nil).
func (h *HeavyHitters) Len() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}
