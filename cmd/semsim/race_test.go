//go:build race

package main

// raceEnabled reports a -race build. The race detector drops a quarter
// of sync.Pool puts, so allocation counts through pooled code read high.
const raceEnabled = true

// raceAllocSlack is how far above its exact count a read may allocate
// under -race: refilling encoding/json's encode-state pool and the
// top-k scoring scratch after the puts the detector dropped.
const raceAllocSlack = 4
