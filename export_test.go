package semsim

import (
	"time"

	"semsim/internal/walk"
)

// WaitShadowReference blocks until the current epoch's shadow reference
// is ready or timeout passes, and reports whether it became ready. The
// external benchmarks wait on it so a shadowed index verifies samples
// instead of skipping them.
func WaitShadowReference(ix *Index, timeout time.Duration) bool {
	select {
	case <-ix.snap.Load().refReady:
		return true
	case <-time.After(timeout):
		return false
	}
}

// EpochWalks returns the current epoch's walk index, so tests can watch
// one epoch's lifetime (weak pointers) and compare the walk-index
// gauges with it.
func EpochWalks(ix *Index) *walk.Index { return ix.snap.Load().walks }
