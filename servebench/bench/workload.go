// Package bench holds the parts of the serving benchmark that both the
// HTTP harness and the in-process replay need: the seeded request and
// mutation-batch sequences, the phase sizes derived from a run length,
// percentile and counter-delta arithmetic, and the span recorder.
package bench

import (
	"fmt"
	"math/rand"
)

// Workload names.
const (
	Pair = "pair"
	TopK = "topk"
)

// Workloads lists every workload the harness runs.
var Workloads = []string{Pair, TopK}

// Fixed inputs shared by every workload: the generated graph and the
// shape of the requests.
const (
	Dataset   = "amazon"
	GraphSize = 1000
	GraphSeed = 1
	TopKSize  = 10
	// ZipfS skews topk sources.
	ZipfS = 1.1
	// ExplainEvery makes every 10th pair read an /explain.
	ExplainEvery = 10
	// RemoveAfter is how many weighted edges a batch stream keeps before
	// each batch also removes the oldest one.
	RemoveAfter = 2
	// ConceptEvery puts an update_concept_freq into every 3rd batch.
	ConceptEvery = 3
)

// Phases sizes one run. Reads and batches are fixed counts derived from
// the workload and the run length alone, so every run walks the server
// through the same states whatever the speed of the machine.
type Phases struct {
	WarmReads int // reads before anything is measured
	MeasReads int // measured reads, closed loop
	// Blocks splits the measured phase; read metrics are medians over
	// blocks, so a slow stretch of a shared machine moves fewer of them.
	Blocks int
	// ProbeBatches are /mutate batches the measured server commits after
	// the read phase, so the commit path is answer-checked.
	ProbeBatches int
	// AuxRounds start a second server between read blocks while the
	// measured one idles; each gives one set-up sample. Spread over the
	// run like the read blocks, these samples see the same mix of fast
	// and slow stretches of a shared machine, where back-to-back samples
	// would all land in one.
	AuxRounds int
}

// Nominal request rates on a 2-CPU x86 box; they only turn --seconds into
// fixed counts.
const (
	pairRate = 16000
	topkRate = 400
)

// PlanPhases returns the phase sizes for a workload measured for about
// seconds seconds.
func PlanPhases(workload string, seconds int) (Phases, error) {
	if seconds < 1 {
		return Phases{}, fmt.Errorf("bench: --seconds must be at least 1, got %d", seconds)
	}
	switch workload {
	case Pair:
		// Blocks of about a second keep 160 samples beyond each p99.
		return Phases{WarmReads: 20000, MeasReads: seconds * pairRate, Blocks: max(seconds, 2), ProbeBatches: 1, AuxRounds: 4}, nil
	case TopK:
		// Blocks of about 1,200 reads keep 12 samples beyond each p99.
		return Phases{WarmReads: 300, MeasReads: seconds * topkRate, Blocks: max(seconds*topkRate/1200, 2),
			ProbeBatches: 1, AuxRounds: 4}, nil
	}
	return Phases{}, fmt.Errorf("bench: unknown workload %q (want pair or topk)", workload)
}

// AuxBefore reports whether an aux round runs before read block b: the
// rounds split the blocks into AuxRounds+1 nearly equal runs.
func (p Phases) AuxBefore(b int) bool {
	return b > 0 && b*(p.AuxRounds+1)/p.Blocks > (b-1)*(p.AuxRounds+1)/p.Blocks
}

// Read is one read request.
type Read struct {
	Endpoint string // "/query", "/explain" or "/topk"
	U, V     string // V is empty for /topk
}

// Path renders the request path and query string.
func (r Read) Path() string {
	if r.Endpoint == "/topk" {
		return fmt.Sprintf("/topk?u=%s&k=%d", r.U, TopKSize)
	}
	return fmt.Sprintf("%s?u=%s&v=%s", r.Endpoint, r.U, r.V)
}

// ItemName is the datagen name of the i-th item.
func ItemName(i int) string { return fmt.Sprintf("item-%d", i) }

// Reads yields a workload's read sequence. The same seed yields the same
// sequence; Next never fails and never ends.
type Reads struct {
	workload string
	rng      *rand.Rand
	zipf     *rand.Zipf
	perm     []int
	i        int
}

// Stream offsets keep the read, batch and probe streams of one seed
// independent of each other.
const (
	readStream  = 0x5eed0001
	batchStream = 0x5eed0002
	probeStream = 0x5eed0003
)

// popularitySeed fixes which items are popular top-k sources. It is part
// of the workload, like the graph: with a Zipf skew the few hottest
// sources carry most of the requests, so a per-seed ranking would make
// top-k cost depend on which items the seed happened to make hot.
const popularitySeed = 0x7a697066

// NewReads starts the read sequence of workload for seed. Pair draws
// uniform item pairs; topk draws Zipf-skewed sources over a fixed
// popularity ranking of the items.
func NewReads(workload string, seed int64) *Reads {
	r := &Reads{workload: workload, rng: rand.New(rand.NewSource(seed ^ readStream))}
	if workload == TopK {
		r.perm = rand.New(rand.NewSource(popularitySeed)).Perm(GraphSize)
		r.zipf = rand.NewZipf(r.rng, ZipfS, 1, GraphSize-1)
	}
	return r
}

// Next returns the next read.
func (r *Reads) Next() Read {
	i := r.i
	r.i++
	if r.workload == TopK {
		return Read{Endpoint: "/topk", U: ItemName(r.perm[r.zipf.Uint64()])}
	}
	u, v := uniformPair(r.rng)
	ep := "/query"
	if i%ExplainEvery == ExplainEvery-1 {
		ep = "/explain"
	}
	return Read{Endpoint: ep, U: ItemName(u), V: ItemName(v)}
}

func uniformPair(rng *rand.Rand) (int, int) {
	u := rng.Intn(GraphSize)
	v := rng.Intn(GraphSize - 1)
	if v >= u {
		v++
	}
	return u, v
}

// Op is one /mutate operation in the server's wire shape.
type Op struct {
	Op      string  `json:"op"`
	From    string  `json:"from,omitempty"`
	To      string  `json:"to,omitempty"`
	Label   string  `json:"label,omitempty"`
	Weight  float64 `json:"weight,omitempty"`
	Name    string  `json:"name,omitempty"`
	Concept string  `json:"concept,omitempty"`
	Freq    float64 `json:"freq,omitempty"`
}

// Batch is one /mutate request body.
type Batch struct {
	Ops []Op `json:"ops"`
}

// Batches yields the mutation-batch sequence for seed. Batch j adds node
// bench-j with two co-purchase anchor edges to an existing item, adds one
// weighted co-purchase edge between two existing items and, once more
// than RemoveAfter such edges were added, removes the oldest of them;
// every ConceptEvery-th batch also updates the IC of one category.
// categories must be the graph's category node names in a fixed order.
type Batches struct {
	rng        *rand.Rand
	categories []string
	added      [][2]string
	j          int
}

// NewBatches starts the batch sequence for seed.
func NewBatches(seed int64, categories []string) *Batches {
	return &Batches{rng: rand.New(rand.NewSource(seed ^ batchStream)), categories: categories}
}

// Next returns the next batch.
func (b *Batches) Next() Batch {
	j := b.j
	b.j++
	name := fmt.Sprintf("bench-%d", j)
	anchor := ItemName(b.rng.Intn(GraphSize))
	from, to := uniformPair(b.rng)
	weight := float64(1 + b.rng.Intn(5))
	ops := []Op{
		{Op: "add_node", Name: name, Label: "item"},
		{Op: "add_edge", From: name, To: anchor, Label: "co-purchase", Weight: 1},
		{Op: "add_edge", From: anchor, To: name, Label: "co-purchase", Weight: 1},
		{Op: "add_edge", From: ItemName(from), To: ItemName(to), Label: "co-purchase", Weight: weight},
	}
	b.added = append(b.added, [2]string{ItemName(from), ItemName(to)})
	if len(b.added) > RemoveAfter {
		old := b.added[0]
		b.added = b.added[1:]
		ops = append(ops, Op{Op: "remove_edge", From: old[0], To: old[1], Label: "co-purchase"})
	}
	if len(b.categories) > 0 && j%ConceptEvery == ConceptEvery-1 {
		c := b.categories[b.rng.Intn(len(b.categories))]
		ops = append(ops, Op{Op: "update_concept_freq", Concept: c, Freq: 0.2 + 0.6*b.rng.Float64()})
	}
	return Batch{Ops: ops}
}

// ProbeReads is the fixed read set checked against the in-process index
// after the last commit: uniform item pairs, pairs that touch the nodes
// the batches added, and topk sources among both.
func ProbeReads(seed int64, batches int) []Read {
	rng := rand.New(rand.NewSource(seed ^ probeStream))
	var out []Read
	for i := 0; i < 24; i++ {
		u, v := uniformPair(rng)
		out = append(out, Read{Endpoint: "/query", U: ItemName(u), V: ItemName(v)})
	}
	for j := 0; j < batches && j < 8; j++ {
		out = append(out, Read{Endpoint: "/query", U: fmt.Sprintf("bench-%d", j), V: ItemName(rng.Intn(GraphSize))})
	}
	for i := 0; i < 4; i++ {
		out = append(out, Read{Endpoint: "/topk", U: ItemName(rng.Intn(GraphSize))})
	}
	if batches > 0 {
		out = append(out, Read{Endpoint: "/topk", U: fmt.Sprintf("bench-%d", batches-1)})
	}
	return out
}

// RepeatShare is the share of the first n reads of a workload that
// repeat an earlier request exactly (same endpoint and nodes): how much
// work the requests can share through the server's caches.
func RepeatShare(workload string, seed int64, n int) float64 {
	if n <= 0 {
		return 0
	}
	seen := make(map[Read]bool)
	rs := NewReads(workload, seed)
	repeats := 0
	for i := 0; i < n; i++ {
		rd := rs.Next()
		if seen[rd] {
			repeats++
		}
		seen[rd] = true
	}
	return float64(repeats) / float64(n)
}
