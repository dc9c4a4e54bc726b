package mc

import (
	"slices"
	"sync"
	"sync/atomic"

	"semsim/internal/obs"
)

// Chunk sizes of the parallel tasks. A chunk is the unit a participant
// claims, so a task's chunking — and with it every result and Cost —
// depends only on the task, never on the worker count.
const (
	// walkChunk is how many of u's walk slots a collision scan's
	// enumeration claims at once.
	walkChunk = 8
	// pairChunk is how many pairs (collision groups, brute top-k
	// candidates, batch pairs) a scoring participant claims at once.
	pairChunk = 16
)

// chunkTask is a parallel task split into numbered chunks.
type chunkTask interface {
	// runChunk runs chunk c as participant p. Chunks write disjoint
	// outputs; p selects the participant's own scratch (its Cost).
	runChunk(p, c int)
}

// fanout is the package's one parallel loop. The calling goroutine is
// participant 0 and spawns participants-1 helpers; every participant
// claims the next unclaimed chunk from one atomic counter until none
// are left. A helper that starts late only joins late: the caller never
// idles while chunks remain.
//
// A fanout lives in a pooled scratch, so a run allocates nothing: the
// counter, the WaitGroup, the per-participant Costs and the helpers'
// entry point are reused from run to run.
type fanout struct {
	next   atomic.Int64 // next unclaimed chunk
	joined atomic.Int32 // participant numbers handed to helpers
	wg     sync.WaitGroup
	chunks int
	task   chunkTask
	active *obs.Gauge
	// costs holds each participant's Cost while charging is on; the
	// caller merges them after the join, so no Cost is shared between
	// goroutines.
	costs    []obs.Cost
	charging bool
	// The first panic in any participant is recovered into panicVal
	// (never nil: recover turns panic(nil) into a *runtime.PanicNilError),
	// stops the claims, and is raised again in the caller after the join.
	mu       sync.Mutex
	panicVal any
	// help is helper bound once, so spawning allocates no closure.
	help func()
}

// run runs task's chunks 0..chunks-1 on at most participants
// participants, the calling goroutine included, and returns once every
// chunk has run. With a non-nil co each participant charges its own Cost
// (cost(p)), and run folds them into co. A panic in any participant
// panics the caller with the same value, after every helper has
// stopped; the fanout is reusable either way.
func (f *fanout) run(e *Estimator, participants, chunks int, co *obs.Cost, task chunkTask) {
	participants = max(1, min(participants, chunks))
	if f.help == nil {
		f.help = f.helper
	}
	f.next.Store(0)
	f.joined.Store(0)
	f.chunks, f.task, f.active = chunks, task, e.m.poolActive
	f.charging = co != nil
	if f.charging {
		f.costs = slices.Grow(f.costs[:0], participants)[:participants]
		clear(f.costs)
	}
	for p := 1; p < participants; p++ {
		f.wg.Add(1)
		e.m.poolTasks.Inc()
		go f.help()
	}
	f.claim(0)
	f.wg.Wait()
	f.task = nil
	if f.charging {
		for p := range f.costs {
			co.Add(&f.costs[p])
		}
	}
	if v := f.panicVal; v != nil {
		f.panicVal = nil
		panic(v)
	}
}

// cost returns participant p's Cost, or nil when charging is off.
func (f *fanout) cost(p int) *obs.Cost {
	if !f.charging {
		return nil
	}
	return &f.costs[p]
}

// helper is a spawned participant.
func (f *fanout) helper() {
	defer f.wg.Done()
	f.active.Add(1)
	defer f.active.Add(-1)
	f.claim(int(f.joined.Add(1)))
}

// claim runs chunks as participant p until none are left. A panic ends
// the claims of every participant and is kept for run to raise.
func (f *fanout) claim(p int) {
	defer func() {
		if r := recover(); r != nil {
			f.next.Store(int64(f.chunks))
			f.mu.Lock()
			if f.panicVal == nil {
				f.panicVal = r
			}
			f.mu.Unlock()
		}
	}()
	for c := int(f.next.Add(1) - 1); c < f.chunks; c = int(f.next.Add(1) - 1) {
		f.task.runChunk(p, c)
	}
}

// chunkBounds returns chunk c's range of a task of n units in chunks of
// size.
func chunkBounds(c, size, n int) (lo, hi int) {
	lo = c * size
	return lo, min(lo+size, n)
}

// numChunks is the number of size-unit chunks covering n units.
func numChunks(n, size int) int { return (n + size - 1) / size }
