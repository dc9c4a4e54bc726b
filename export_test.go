package semsim

import "time"

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
