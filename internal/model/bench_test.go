package model

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/mathx"
)

// BenchmarkScoreItems prices one full-catalogue scoring sweep per model
// family at a paper-scale catalogue (20k items, dim 16 — the MovieLens
// sizing of the paper's tables), comparing the blocked batch kernels
// (ScoreAll) against the equivalent per-item ScoreItems singleton loop.
// The batch path is the one the HR/F1 utility sweeps, CIA re-scoring
// and the MIA/AIA evaluators run on; scalar is the seed behaviour.
func BenchmarkScoreItems(b *testing.B) {
	const users, items, dim = 100, 20000, 16
	factories := []struct {
		name string
		f    Factory
	}{
		{"gmf", NewGMFFactory(users, items, dim)},
		{"prme", NewPRMEFactory(users, items, dim)},
		{"bprmf", NewBPRMFFactory(users, items, dim)},
		{"neumf", NewNeuMFFactory(users, items, dim)},
	}
	for _, fam := range factories {
		m := fam.f(1)
		dst := make([]float64, items)
		b.Run(fmt.Sprintf("%s/batch", fam.name), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.ScoreAll(i%users, -1, dst)
			}
		})
		b.Run(fmt.Sprintf("%s/scalar", fam.name), func(b *testing.B) {
			one := make([]float64, 1)
			single := make([]int, 1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for it := 0; it < items; it++ {
					single[0] = it
					m.ScoreItems(i%users, -1, single, one)
					dst[it] = one[0]
				}
			}
		})
	}
}

// BenchmarkTrainLocal prices the local-training layer: one op is one
// user's 2 local epochs (the paper's TrainOptions: default LR and L2,
// 4 negatives per positive) of GMF dim 16 on a 200-user MovieLens-like
// dataset, cycling through the users. Steady state allocates nothing.
func BenchmarkTrainLocal(b *testing.B) {
	const dim = 16
	d := dataset.MovieLensLike(200.0/943, 1)
	d.SplitLeaveOneOut(3)
	m := NewGMF(d.NumUsers, d.NumItems, dim, 1)
	opt := TrainOptions{Epochs: 2, Rand: mathx.NewRand(1)}
	for u := 0; u < d.NumUsers; u++ {
		m.TrainLocal(d, u, opt) // size the reused shuffle buffer
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainLocal(d, i%d.NumUsers, opt)
	}
}
