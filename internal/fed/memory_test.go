package fed

import (
	"runtime"
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/model"
)

// liveHeap returns the live heap after a full collection. Two cycles:
// the first moves sync.Pool contents (the payload free-list) to the
// victim cache, the second frees them.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFedHeapBoundedAcrossRounds pins that a federation's live heap
// does not grow with the number of distinct clients ever sampled. On a
// sampled population (4000 users, 1% per round) nearly every round
// samples clients never seen before, so any per-client model-sized
// state (a received-model snapshot, a staged upload) would add
// sampled × modelBytes ≈ 40 × 269 KB ≈ 10.8 MB per round — 65 MB over
// the six measured rounds.
//
// What may legitimately grow is each newly sampled client's
// private-row map (one dim-8 row plus map overhead, well under 1 KB),
// ≈ 40 × 6 × 1 KB = 240 KB over the window, plus GC and pool noise of
// at most one model-sized set in flight. The bound is therefore two
// model byte sizes: a tenth of a single leaked round.
func TestFedHeapBoundedAcrossRounds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 4000-user federation")
	}
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 4000, NumItems: 200, NumCommunities: 4,
		MeanItemsPerUser: 8, MinItemsPerUser: 4, Affinity: 0.9, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	const warm, measured = 3, 6
	s, err := New(Config{
		Dataset:        d,
		Factory:        model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		Rounds:         warm + measured,
		ClientFraction: 0.01,
		Train:          model.TrainOptions{Epochs: 1},
		Workers:        2,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	modelBytes := uint64(8 * s.Global().Params().NumParams())

	for s.Round() < warm {
		s.RunRound()
	}
	before := liveHeap()
	s.Run()
	after := liveHeap()
	runtime.KeepAlive(s) // the simulation must be live for both readings

	bound := 2 * modelBytes
	if after > before+bound {
		t.Fatalf("live heap grew %d B over %d sampled rounds (%d → %d); bound %d B = 2 × model (%d B)",
			after-before, measured, before, after, bound, modelBytes)
	}
	t.Logf("live heap %d → %d B over %d rounds (model %d B)", before, after, measured, modelBytes)
}
