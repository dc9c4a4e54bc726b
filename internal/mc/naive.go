package mc

import (
	"fmt"
	"math/rand"

	"semsim/internal/hin"
	"semsim/internal/pairgraph"
	"semsim/internal/semantic"
)

// NaiveSampler is the naive MC framework of Section 4.2: it samples
// semantic-aware coupled walks *per node pair* directly from the SARW
// distribution P, so no importance correction is needed —
//
//	sim(u,v) ~ sem(u,v) * (1/n_w) * sum_l c^{tau_l}
//
// The estimator matches SimRank's MC error behaviour, but materializing
// such walks for every pair requires an O(n_w * t * n^2) sample set
// (PrecomputeStorageBytes), the quadratic blowup that motivates the
// importance-sampling estimator. Here walks are drawn at query time.
type NaiveSampler struct {
	z    *pairgraph.Normalizer
	sem  semantic.Measure
	c    float64
	nw   int
	t    int
	seed int64
}

// NewNaiveSampler builds a per-pair SARW sampler.
func NewNaiveSampler(g *hin.Graph, sem semantic.Measure, c float64, numWalks, length int, seed int64) (*NaiveSampler, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("mc: decay factor c = %v outside (0,1)", c)
	}
	if numWalks < 1 || length < 1 {
		return nil, fmt.Errorf("mc: numWalks (%d) and length (%d) must be >= 1", numWalks, length)
	}
	return &NaiveSampler{z: pairgraph.NewNormalizer(g, sem), sem: sem, c: c, nw: numWalks, t: length, seed: seed}, nil
}

// Query estimates sim(u,v) by sampling n_w coupled SARWs from (u,v).
func (s *NaiveSampler) Query(u, v hin.NodeID) float64 {
	if u == v {
		return 1
	}
	rng := rand.New(rand.NewSource(s.seed ^ (int64(u)<<32 | int64(uint32(v)))))
	var sum float64
	for i := 0; i < s.nw; i++ {
		if tau, ok := s.sampleMeeting(u, v, rng); ok {
			p := 1.0
			for j := 0; j < tau; j++ {
				p *= s.c
			}
			sum += p
		}
	}
	return s.sem.Sim(u, v) * sum / float64(s.nw)
}

// sampleMeeting walks the pair graph under the SARW distribution until a
// singleton is reached (returning the step count) or t steps elapse.
func (s *NaiveSampler) sampleMeeting(u, v hin.NodeID, rng *rand.Rand) (tau int, ok bool) {
	cur := pairgraph.MakePair(u, v)
	for step := 1; step <= s.t; step++ {
		trs := s.z.Transitions(cur)
		if len(trs) == 0 {
			return 0, false
		}
		r := rng.Float64()
		var acc float64
		next := trs[len(trs)-1].To
		for _, tr := range trs {
			acc += tr.Prob
			if r < acc {
				next = tr.To
				break
			}
		}
		if next.Singleton() {
			return step, true
		}
		cur = next
	}
	return 0, false
}

// PrecomputeStorageBytes reports the sample-set size a precomputed
// per-pair index would need (4 bytes per stored step, two walks per
// coupled sample): the O(n_w * t * n^2) cost of Section 4.2.
func (s *NaiveSampler) PrecomputeStorageBytes(n int) int64 {
	return int64(n) * int64(n) * int64(s.nw) * int64(s.t+1) * 4
}
