package obs

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
)

// refHeavy is the space-saving sketch at its plainest: one slice,
// searched linearly for the key and for the minimum-count entry (ties
// to the smaller key), which the new key replaces with the minimum's
// count as its error bound.
type refHeavy struct {
	cap     int
	entries []HeavyEntry
}

func (r *refHeavy) observe(key string, cost int64) {
	for i := range r.entries {
		if r.entries[i].Key == key {
			r.entries[i].Count += cost
			return
		}
	}
	if len(r.entries) < r.cap {
		r.entries = append(r.entries, HeavyEntry{Key: key, Count: cost})
		return
	}
	m := 0
	for i, e := range r.entries {
		if e.Count < r.entries[m].Count || (e.Count == r.entries[m].Count && e.Key < r.entries[m].Key) {
			m = i
		}
	}
	min := r.entries[m].Count
	r.entries = append(r.entries[:m], r.entries[m+1:]...)
	r.entries = append(r.entries, HeavyEntry{Key: key, Count: min + cost, Err: min})
}

func (r *refHeavy) top() []HeavyEntry {
	out := append([]HeavyEntry(nil), r.entries...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && less(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestHeavyHittersMatchesReference drives the sketch and the reference
// model with one seeded stream — skewed and uniform keys, repeated
// costs so that count ties occur — and requires the same Top after
// every observation.
func TestHeavyHittersMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 4, 64} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		zipf := rand.NewZipf(rng, 1.1, 1, 400)
		h := NewHeavyHitters(capacity, nil)
		ref := &refHeavy{cap: capacity}
		for i := 0; i < 10000; i++ {
			k := int(zipf.Uint64())
			if i%2 == 1 {
				k = rng.Intn(400)
			}
			key, cost := "item-"+strconv.Itoa(k), int64(1+rng.Intn(3))
			h.Observe(key, cost)
			ref.observe(key, cost)
			if got, want := h.Top(capacity), ref.top(); !reflect.DeepEqual(got, want) {
				t.Fatalf("capacity %d, observation %d: Top = %v, reference %v", capacity, i, got, want)
			}
		}
		if h.Len() != capacity {
			t.Fatalf("capacity %d: Len = %d after the stream", capacity, h.Len())
		}
	}
}

// TestHeavyHittersEvictionAllocs: a miss on a full table evicts in
// place, allocating nothing.
func TestHeavyHittersEvictionAllocs(t *testing.T) {
	const capacity = 64
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = "item-" + strconv.Itoa(i)
	}
	h := NewHeavyHitters(capacity, NewRegistry())
	for _, k := range keys[:capacity] {
		h.Observe(k, 1)
	}
	i := capacity
	before := h.evicted.Value()
	allocs := testing.AllocsPerRun(2000, func() {
		h.Observe(keys[i%len(keys)], 1)
		i++
	})
	if allocs != 0 {
		t.Errorf("Observe on the eviction path: %v allocs/op, want 0", allocs)
	}
	if h.evicted.Value()-before < 2000 {
		t.Fatalf("only %d of the timed observations evicted", h.evicted.Value()-before)
	}
}
