package attack

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// BenchmarkCIAEndRound prices one CIA re-scoring pass (EndRound) over
// 200 dirty senders of a MovieLens-like catalogue (GMF dim 16, every
// user's training set a target set), serially. targets=200 is the FL
// server shape (every user a target); targets=1 is the shape of one
// gossip placement. Re-observing the senders between passes is not
// timed.
func BenchmarkCIAEndRound(b *testing.B) {
	const dim = 16
	d := dataset.MovieLensLike(200.0/943, 1)
	states := make([]*param.Set, d.NumUsers)
	for u := range states {
		states[u] = model.NewGMF(d.NumUsers, d.NumItems, dim, uint64(u+1)).Params().Clone()
	}
	for _, nt := range []int{200, 1} {
		b.Run(fmt.Sprintf("targets=%d", nt), func(b *testing.B) {
			ev := NewRecommenderEval(model.NewGMF(d.NumUsers, d.NumItems, dim, 0), d.Train[:nt])
			cia := New(Config{Beta: 0.99, K: 10, NumUsers: d.NumUsers, Eval: ev})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for u, s := range states {
					cia.Observe(u, s)
				}
				b.StartTimer()
				cia.EndRound()
			}
		})
	}
}
