package semantic

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"semsim/internal/hin"
	"semsim/internal/obs"
	"semsim/internal/taxonomy"
)

// kernelModes builds one kernel per mode over the same base: a dense one
// (budget comfortably above the matrix) and a memo one (budget 1 byte
// forces the fallback).
func kernelModes(t *testing.T, base Measure, n, workers int) map[string]*Kernel {
	t.Helper()
	dense, err := NewKernel(base, n, KernelOptions{Workers: workers})
	if err != nil {
		t.Fatalf("dense kernel: %v", err)
	}
	if !dense.DenseMode() {
		t.Fatalf("default budget did not yield dense mode for n=%d (classes=%d)", n, dense.NumClasses())
	}
	memo, err := NewKernel(base, n, KernelOptions{MemoryBudget: 1, Workers: workers})
	if err != nil {
		t.Fatalf("memo kernel: %v", err)
	}
	if memo.DenseMode() {
		t.Fatal("1-byte budget still produced a dense kernel")
	}
	return map[string]*Kernel{"dense": dense, "memo": memo}
}

// TestKernelBitIdenticalRandomTaxonomies is the kernel's core contract:
// for every stock measure, over a population of random taxonomies, both
// kernel modes return float64 values bit-identical to the wrapped
// measure — on every ordered pair, not a sample (the domains are small
// enough to sweep exhaustively).
func TestKernelBitIdenticalRandomTaxonomies(t *testing.T) {
	rng := rand.New(rand.NewSource(1217))
	const taxonomies = 12
	for i := 0; i < taxonomies; i++ {
		n := 2 + rng.Intn(90)
		tax := randomTaxonomy(t, rng, n)
		measures := []Measure{
			Lin{Tax: tax},
			Resnik{Tax: tax},
			WuPalmer{Tax: tax},
			Path{Tax: tax},
			JiangConrath{Tax: tax},
			Uniform{},
		}
		workers := 1 + rng.Intn(4)
		for _, m := range measures {
			for mode, k := range kernelModes(t, m, n, workers) {
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						got := k.Sim(hin.NodeID(u), hin.NodeID(v))
						want := m.Sim(hin.NodeID(u), hin.NodeID(v))
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("taxonomy %d (n=%d) %s/%s: Sim(%d,%d) = %v, base = %v",
								i, n, m.Name(), mode, u, v, got, want)
						}
					}
				}
				if err := Validate(k, n, 200, rng); err != nil {
					t.Errorf("%s/%s kernel not admissible: %v", m.Name(), mode, err)
				}
			}
		}
	}
}

// TestKernelHitCounters: dense lookups count nothing, so the hot path
// bumps no shared counter; the memo mode counts every hit and miss.
func TestKernelHitCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 30
	base := Lin{Tax: randomTaxonomy(t, rng, n)}
	probe := func(budget int64) (hits, misses int64) {
		reg := obs.NewRegistry()
		k, err := NewKernel(base, n, KernelOptions{MemoryBudget: budget, Metrics: reg})
		if err != nil {
			t.Fatalf("NewKernel: %v", err)
		}
		for rep := 0; rep < 2; rep++ {
			for u := 0; u < n; u++ {
				k.Sim(hin.NodeID(u), hin.NodeID((u*7+1)%n))
			}
		}
		snap := reg.Snapshot()
		return snap.Counters["semsim_kernel_hits_total"], snap.Counters["semsim_kernel_misses_total"]
	}
	if hits, misses := probe(0); hits != 0 || misses != 0 {
		t.Errorf("dense kernel counted %d hits, %d misses; want 0, 0", hits, misses)
	}
	// u*7+1 never equals u mod 30, so all 2n probes are off-diagonal
	// and reach the memo; the second round repeats the first.
	hits, misses := probe(1)
	if misses == 0 || hits < misses || hits+misses != 2*n {
		t.Errorf("memo kernel counted %d hits, %d misses over %d probes", hits, misses, 2*n)
	}
}

// TestKernelConcurrentReaders hammers both kernel modes from concurrent
// goroutines (run under -race in CI tier 2) and checks values stay
// bit-identical to the base throughout — the memo mode is lazily
// filling its striped shards while readers race over the same pairs.
func TestKernelConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 80
	tax := randomTaxonomy(t, rng, n)
	base := Lin{Tax: tax}
	for mode, k := range kernelModes(t, base, n, 4) {
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				local := rand.New(rand.NewSource(seed))
				for i := 0; i < 4000; i++ {
					u := hin.NodeID(local.Intn(n))
					v := hin.NodeID(local.Intn(n))
					got := k.Sim(u, v)
					want := base.Sim(u, v)
					if math.Float64bits(got) != math.Float64bits(want) {
						select {
						case errs <- mode:
						default:
						}
						return
					}
				}
			}(int64(g) + 100)
		}
		wg.Wait()
		select {
		case m := <-errs:
			t.Fatalf("%s kernel diverged from base under concurrency", m)
		default:
		}
	}
}

// TestKernelLeafCollapse checks the class dedup actually collapses
// interchangeable instance leaves: many children under few parents with
// identical IC must yield far fewer classes than nodes.
func TestKernelLeafCollapse(t *testing.T) {
	// 4 internal parents under the root, 96 leaves spread across them.
	n := 100
	parents := make([]int32, n)
	for i := 0; i < 4; i++ {
		parents[i] = -1
	}
	for i := 4; i < n; i++ {
		parents[i] = int32(i % 4)
	}
	tax := taxFromParents(t, parents)
	k, err := NewKernel(Lin{Tax: tax}, n, KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Leaves with a shared parent all carry IC = 1 (instance leaves), so
	// 96 leaves collapse to 4 classes + 4 parents = 8.
	if k.NumClasses() >= n/2 {
		t.Fatalf("leaf collapse ineffective: %d classes for %d nodes", k.NumClasses(), n)
	}
	// And collapsing must not change any value.
	base := Lin{Tax: tax}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			got, want := k.Sim(hin.NodeID(u), hin.NodeID(v)), base.Sim(hin.NodeID(u), hin.NodeID(v))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Sim(%d,%d) = %v, base = %v", u, v, got, want)
			}
		}
	}
}

// TestKernelOverrideStacking pins the supported composition order:
// kernel wraps the base, overrides wrap the kernel. Overridden pairs
// reflect the override, untouched pairs flow through the kernel
// bit-identically, and Sets applied after kernel construction are
// observed (which is exactly what the reverse order cannot guarantee).
func TestKernelOverrideStacking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 40
	tax := randomTaxonomy(t, rng, n)
	base := Lin{Tax: tax}
	k, err := NewKernel(base, n, KernelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := NewOverride(k)
	o.Set(3, 7, 0.42)
	o.Set(7, 3, 0.43) // symmetric orders share one slot: last write wins
	if got := o.Sim(3, 7); got != 0.43 {
		t.Fatalf("override not applied: Sim(3,7) = %v", got)
	}
	if got := o.Sim(7, 3); got != 0.43 {
		t.Fatalf("override not symmetric: Sim(7,3) = %v", got)
	}
	if o.Len() != 1 {
		t.Fatalf("Len = %d, want 1", o.Len())
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if (u == 3 && v == 7) || (u == 7 && v == 3) {
				continue
			}
			got, want := o.Sim(hin.NodeID(u), hin.NodeID(v)), base.Sim(hin.NodeID(u), hin.NodeID(v))
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("non-overridden Sim(%d,%d) = %v, base = %v", u, v, got, want)
			}
		}
	}
	if name := o.Name(); name != "Lin+kernel+overrides" {
		t.Fatalf("stacked name = %q", name)
	}
}

// TestOverrideMutexFreeEmptyPath checks the no-override fast path and
// that concurrent readers race cleanly with a writer (copy-on-write; run
// under -race in CI tier 2).
func TestOverrideConcurrentSetAndSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 30
	tax := randomTaxonomy(t, rng, n)
	o := NewOverride(Lin{Tax: tax})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			local := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u, v := hin.NodeID(local.Intn(n)), hin.NodeID(local.Intn(n))
				if s := o.Sim(u, v); s <= 0 || s > 1 {
					t.Errorf("Sim(%d,%d) = %v out of (0,1]", u, v, s)
					return
				}
			}
		}(int64(g))
	}
	for i := 0; i < 200; i++ {
		o.Set(hin.NodeID(i%n), hin.NodeID((i*7+1)%n), 0.1+float64(i%9)/10)
	}
	close(stop)
	wg.Wait()
	if o.Len() == 0 {
		t.Fatal("no overrides recorded")
	}
}

func taxFromParents(t *testing.T, parents []int32) *taxonomy.Taxonomy {
	t.Helper()
	tax, err := taxonomy.FromParents(parents, taxonomy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tax
}
