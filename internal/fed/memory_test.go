package fed

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/transport"
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

// startRecorder wraps a model and records which users began local
// training on it. Clones share the record, so every worker's scratch
// model reports into it.
type startRecorder struct {
	model.Recommender
	mu      *sync.Mutex
	started []bool
}

func (r startRecorder) Clone() model.Recommender {
	return startRecorder{Recommender: r.Recommender.Clone(), mu: r.mu, started: r.started}
}

func (r startRecorder) TrainLocal(d *dataset.Dataset, u int, opt model.TrainOptions) {
	r.mu.Lock()
	r.started[u] = true
	r.mu.Unlock()
	r.Recommender.TrainLocal(d, u, opt)
}

// startedFrom counts the recorded users with id >= first.
func (r startRecorder) startedFrom(first int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.started[first:] {
		if s {
			n++
		}
	}
	return n
}

// TestFoldWindowBoundsInFlightClients pins the fold window: while the
// fold goroutine is stuck on the round's first upload, workers may run
// at most 2·Workers clients from that upload's sample index on, instead
// of training (and staging) the rest of the round. Under full
// participation the sample index is the user id. The bound must hold
// and no round may hang on every aggregator (the robust ones stage
// uploads but still advance the cursor), with dropout, and with
// uploads lost by the faulty transport.
func TestFoldWindowBoundsInFlightClients(t *testing.T) {
	d := fedTestDataset(t)
	lossPlan := transport.FaultPlan{Seed: 3, SendLossProb: 0.3}
	scenarios := []struct {
		name string
		set  func(*Config)
	}{
		{"fedavg", func(*Config) {}},
		{"median", func(c *Config) { c.Aggregator = AggMedian }},
		{"trimmed-mean", func(c *Config) { c.Aggregator = AggTrimmedMean }},
		{"dropout", func(c *Config) { c.DropoutProb = 0.3 }},
		{"lost-uploads", func(c *Config) {
			c.Transport = faultyTransport(t, "inproc", lossPlan)
			c.FaultPlan = &lossPlan
		}},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, sc := range scenarios {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				rec := startRecorder{mu: new(sync.Mutex), started: make([]bool, d.NumUsers)}
				cfg := fedConfig(d)
				cfg.Rounds = 2
				cfg.ClientFraction = 1
				cfg.Workers = workers
				base := cfg.Factory
				cfg.Factory = func(seed uint64) model.Recommender {
					return startRecorder{Recommender: base(seed), mu: rec.mu, started: rec.started}
				}
				sc.set(&cfg)

				blocked := make(chan int)
				release := make(chan struct{})
				var first sync.Once
				cfg.Observer = observerFunc(func(msg Message) {
					first.Do(func() {
						blocked <- msg.From
						<-release
					})
				})
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					s.Run()
				}()

				var c int
				select {
				case c = <-blocked:
				case <-done:
					t.Fatal("the run finished without an upload")
				case <-time.After(time.Minute):
					t.Fatal("no upload reached the observer: the round hangs")
				}
				// The window admits exactly sample indices [c, c+2W);
				// wait for the workers to fill it, then give any runaway
				// worker time to show itself (no event signals that no
				// further client starts, hence the short settle).
				window := 2 * workers
				want := min(window, d.NumUsers-c)
				for deadline := time.Now().Add(10 * time.Second); rec.startedFrom(c) < want && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				time.Sleep(50 * time.Millisecond)
				got := rec.startedFrom(c)
				close(release)
				select {
				case <-done:
				case <-time.After(time.Minute):
					t.Fatal("the run hangs after the fold resumed")
				}
				if got > window {
					t.Fatalf("%d clients started from sample index %d while the fold was blocked there; window is 2·workers = %d", got, c, window)
				}
				if got < want {
					t.Fatalf("only %d clients started from sample index %d, want %d: the window admits too little", got, c, want)
				}
				if s.Round() != cfg.Rounds {
					t.Fatalf("ran %d rounds, want %d", s.Round(), cfg.Rounds)
				}
			})
		}
	}
}
