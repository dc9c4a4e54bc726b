package walk

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"semsim/internal/hin"
)

// ring builds a directed cycle 0 -> 1 -> ... -> n-1 -> 0, where every node
// has exactly one in-neighbor, making walks deterministic.
func ring(t *testing.T, n int) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a'+i)), "t")
	}
	for i := 0; i < n; i++ {
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+1)%n), "e", 1)
	}
	return b.MustBuild()
}

func star(t *testing.T) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder()
	hub := b.AddNode("hub", "t")
	for i := 0; i < 4; i++ {
		leaf := b.AddNode(string(rune('a'+i)), "t")
		b.AddEdge(leaf, hub, "e", 1)
	}
	return b.MustBuild()
}

func TestBuildDeterministicWalksOnRing(t *testing.T) {
	g := ring(t, 5)
	ix, err := Build(g, Options{NumWalks: 3, Length: 4, Seed: 7})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// On a ring, the in-neighbor of v is v-1, so the walk from v is
	// v, v-1, v-2, ...
	w := ix.Walk(2, 0)
	want := []int32{2, 1, 0, 4, 3}
	for i := range want {
		if w[i] != want[i] {
			t.Fatalf("Walk(2,0) = %v, want %v", w, want)
		}
	}
}

func TestWalkTerminationOnStar(t *testing.T) {
	g := star(t) // hub has 4 in-neighbors; leaves have none
	ix, err := Build(g, Options{NumWalks: 2, Length: 3, Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	leaf := g.MustNode("a")
	w := ix.Walk(leaf, 0)
	if w[0] != int32(leaf) || w[1] != Stop || w[2] != Stop || w[3] != Stop {
		t.Fatalf("leaf walk = %v, want immediate termination", w)
	}
	hub := g.MustNode("hub")
	hw := ix.Walk(hub, 0)
	if hw[1] == Stop {
		t.Fatal("hub walk should take one step to a leaf")
	}
	if hw[2] != Stop {
		t.Fatalf("hub walk should terminate after reaching a leaf, got %v", hw)
	}
}

func TestMeet(t *testing.T) {
	g := ring(t, 4)
	ix, err := Build(g, Options{NumWalks: 1, Length: 6, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Walks from 0 and 2 on a 4-ring go 0,3,2,1,... and 2,1,0,3,...;
	// coupled positions are never equal (parity), so no meeting.
	if _, ok := ix.Meet(0, 2, 0); ok {
		t.Fatal("walks from 0 and 2 on an even ring cannot meet")
	}
	// Self meets at offset 0.
	tau, ok := ix.Meet(1, 1, 0)
	if !ok || tau != 0 {
		t.Fatalf("Meet(v,v) = %d,%v; want 0,true", tau, ok)
	}
	// Walks from 0 and 1: positions 0,3,2,1 and 1,0,3,2 — never equal at
	// the same offset; check odd ring instead.
	g5 := ring(t, 5)
	ix5, err := Build(g5, Options{NumWalks: 1, Length: 6, Seed: 3})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// From 0: 0,4,3,2,1,0,4. From 2: 2,1,0,4,3,2,1. Equal first at
	// offset... 0:{0,4,3,2,1,0,4}, 2:{2,1,0,4,3,2,1} -> offsets compare
	// (0,2)(4,1)(3,0)(2,4)(1,3)(0,2)(4,1): never equal within 6 steps.
	if _, ok := ix5.Meet(0, 2, 0); ok {
		t.Fatal("deterministic 5-ring walks from 0 and 2 do not meet in 6 steps")
	}
}

func TestMeetAfterStopNeverMatches(t *testing.T) {
	g := star(t)
	ix, err := Build(g, Options{NumWalks: 1, Length: 5, Seed: 9})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	// Two distinct leaves: both walks stop immediately; Stop values must
	// not be treated as a meeting point.
	a, bNode := g.MustNode("a"), g.MustNode("b")
	if _, ok := ix.Meet(a, bNode, 0); ok {
		t.Fatal("stopped walks must not meet")
	}
}

// braid builds a graph where every node has two in-neighbors, so walks are
// genuinely random.
func braid(t *testing.T, n int) *hin.Graph {
	t.Helper()
	b := hin.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddNode(string(rune('a'+i)), "t")
	}
	for i := 0; i < n; i++ {
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+1)%n), "e", 1)
		b.AddEdge(hin.NodeID(i), hin.NodeID((i+2)%n), "e", 1)
	}
	return b.MustBuild()
}

func TestBuildReproducible(t *testing.T) {
	g := braid(t, 9)
	ix1, err := Build(g, Options{NumWalks: 8, Length: 7, Seed: 42})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	ix2, err := Build(g, Options{NumWalks: 8, Length: 7, Seed: 42, Parallel: true})
	if err != nil {
		t.Fatalf("Build parallel: %v", err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		for i := 0; i < 8; i++ {
			w1 := ix1.Walk(hin.NodeID(v), i)
			w2 := ix2.Walk(hin.NodeID(v), i)
			for s := range w1 {
				if w1[s] != w2[s] {
					t.Fatalf("parallel build differs at node %d walk %d step %d", v, i, s)
				}
			}
		}
	}
	ix3, err := Build(g, Options{NumWalks: 8, Length: 7, Seed: 43})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	same := true
	for v := 0; v < g.NumNodes() && same; v++ {
		for i := 0; i < 8 && same; i++ {
			w1 := ix1.Walk(hin.NodeID(v), i)
			w3 := ix3.Walk(hin.NodeID(v), i)
			for s := range w1 {
				if w1[s] != w3[s] {
					same = false
					break
				}
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical indexes")
	}
}

func TestBuildValidation(t *testing.T) {
	g := ring(t, 3)
	if _, err := Build(g, Options{NumWalks: -1, Length: 5}); err == nil {
		t.Fatal("want error for negative NumWalks")
	}
	if _, err := Build(g, Options{NumWalks: 5, Length: -2}); err == nil {
		t.Fatal("want error for negative Length")
	}
}

func TestDefaults(t *testing.T) {
	g := ring(t, 3)
	ix, err := Build(g, Options{Seed: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if ix.NumWalks() != DefaultNumWalks || ix.Length() != DefaultLength {
		t.Fatalf("defaults = %d,%d; want %d,%d", ix.NumWalks(), ix.Length(), DefaultNumWalks, DefaultLength)
	}
	// Walk storage plus the per-walk length table.
	if ix.MemoryBytes() != int64(3*DefaultNumWalks*(DefaultLength+1)*4+3*DefaultNumWalks*4) {
		t.Fatalf("MemoryBytes = %d", ix.MemoryBytes())
	}
}

// TestUniformSampling verifies the in-neighbor choice is near uniform.
func TestUniformSampling(t *testing.T) {
	// One center with 3 in-neighbors; count first steps.
	b := hin.NewBuilder()
	c := b.AddNode("center", "t")
	for i := 0; i < 3; i++ {
		v := b.AddNode(string(rune('a'+i)), "t")
		b.AddEdge(v, c, "e", 1)
		// give sources their own in-edge so walks continue (not needed
		// for first step).
		b.AddEdge(c, v, "e", 1)
	}
	g := b.MustBuild()
	ix, err := Build(g, Options{NumWalks: 3000, Length: 1, Seed: 11})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	counts := map[int32]int{}
	for i := 0; i < 3000; i++ {
		counts[ix.Walk(c, i)[1]]++
	}
	for v, n := range counts {
		frac := float64(n) / 3000
		if math.Abs(frac-1.0/3.0) > 0.05 {
			t.Errorf("first step to %d has frequency %v, want ~1/3", v, frac)
		}
	}
	if len(counts) != 3 {
		t.Errorf("only %d distinct first steps, want 3", len(counts))
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	r1 := newRNG(5, 1)
	r2 := newRNG(5, 2)
	same := 0
	for i := 0; i < 100; i++ {
		if r1.next64() == r2.next64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams collided %d times", same)
	}
	r3 := newRNG(5, 3)
	f := r3.float64()
	if f < 0 || f >= 1 {
		t.Fatalf("float64() = %v out of [0,1)", f)
	}
}

// TestBuildParallelBlocks: a parallel Build over many blocks, with
// workers racing for them, is byte-identical to a serial Build, to
// BuildStreaming's file and to Load of that file.
func TestBuildParallelBlocks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := braid(t, 40)
	opts := Options{NumWalks: 150, Length: 15, Seed: 12}
	serial, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallel = true
	parallel, err := Build(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel.blocks) < 4 {
		t.Fatalf("%d blocks; want several so workers share them", len(parallel.blocks))
	}
	var a, b, streamed bytes.Buffer
	if _, err := serial.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := parallel.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildStreaming(g, opts, 0, &streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || !bytes.Equal(a.Bytes(), streamed.Bytes()) {
		t.Fatal("serial Build, parallel Build and BuildStreaming disagree")
	}
	loaded, err := Load(bytes.NewReader(streamed.Bytes()), g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameIndex(t, parallel, loaded)
	if loaded.MemoryBytes() != parallel.MemoryBytes() {
		t.Fatalf("loaded MemoryBytes %d, built %d", loaded.MemoryBytes(), parallel.MemoryBytes())
	}
}
