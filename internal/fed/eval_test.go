package fed

import (
	"testing"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// utilityCurves runs cfg to completion recording both metrics each
// round via OnRound.
func utilityCurves(t *testing.T, cfg Config, workers int) (hr, f1 []float64) {
	t.Helper()
	cfg.Workers = workers
	cfg.OnRound = func(round int, s *Simulation) {
		hr = append(hr, s.UtilityHR(10, 20))
		f1 = append(f1, s.UtilityF1(10))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return hr, f1
}

// Utility curves must be byte-identical across worker counts — the
// evaluation engine's half of the determinism contract, on top of the
// round engine's (training is already covered by
// TestSerialParallelEquivalence). Share-less exercises the per-worker
// private-row overlay path.
func TestUtilityCurveWorkersInvariance(t *testing.T) {
	d := fedTestDataset(t)
	policies := map[string]defense.Policy{
		"full":       nil,
		"share-less": defense.ShareLess{Tau: 1},
	}
	for name, policy := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := fedConfig(d)
			cfg.Policy = policy
			hr1, f11 := utilityCurves(t, cfg, 1)
			hr4, f14 := utilityCurves(t, cfg, 4)
			for r := range hr1 {
				if hr1[r] != hr4[r] {
					t.Fatalf("round %d: HR differs across workers: %v != %v", r, hr1[r], hr4[r])
				}
				if f11[r] != f14[r] {
					t.Fatalf("round %d: F1 differs across workers: %v != %v", r, f11[r], f14[r])
				}
			}
		})
	}
}

// Regression for the shared-evalRng bug: a round's utility must not
// depend on evaluation history. Recording every round and recording
// only the final round must agree on the final round's value (under the
// old shared generator, the earlier sweeps advanced the stream and
// shifted the final round's negative samples).
func TestUtilityIndependentOfEvalCadence(t *testing.T) {
	d := fedTestDataset(t)

	var everyRound []float64
	cfg := fedConfig(d)
	cfg.OnRound = func(round int, s *Simulation) {
		everyRound = append(everyRound, s.UtilityHR(10, 20))
		s.UtilityF1(10) // extra unrelated evaluation traffic
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()

	cfg2 := fedConfig(d)
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	s2.Run()
	lastOnly := s2.UtilityHR(10, 20)

	if got := everyRound[len(everyRound)-1]; got != lastOnly {
		t.Fatalf("final-round utility depends on evaluation cadence: %v (evaluated every round) != %v (evaluated once)", got, lastOnly)
	}
	// And re-evaluating the same round is idempotent.
	if again := s.UtilityHR(10, 20); again != lastOnly {
		t.Fatalf("re-evaluating the same round is not idempotent: %v != %v", again, lastOnly)
	}
}

// shardTestSim builds a simulation whose item table spans several
// reduce shards (600 items × 8 dims > 2 × aggShard).
func shardTestSim(t *testing.T, workers int, agg Aggregator) *Simulation {
	t.Helper()
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		NumUsers: 12, NumItems: 600, NumCommunities: 3,
		MeanItemsPerUser: 20, MinItemsPerUser: 6, Affinity: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.SplitLeaveOneOut(3)
	s, err := New(Config{
		Dataset:    d,
		Factory:    model.NewGMFFactory(d.NumUsers, d.NumItems, 8),
		Rounds:     1,
		Train:      model.TrainOptions{Epochs: 1},
		Workers:    workers,
		Aggregator: agg,
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The sharded robust reduce (aggregateRobust) must be byte-identical
// to the serial reduce, including with partial (Share-less-style)
// payloads that skip entries.
func TestAggregateShardedEquivalence(t *testing.T) {
	for _, agg := range []Aggregator{AggMedian, AggTrimmedMean} {
		t.Run(agg.String(), func(t *testing.T) {
			testShardedEquivalence(t, agg)
		})
	}
}

func testShardedEquivalence(t *testing.T, agg Aggregator) {
	serial := shardTestSim(t, -1, agg)
	parallel := shardTestSim(t, 4, agg)
	if !param.Equal(serial.Global().Params(), parallel.Global().Params(), 0) {
		t.Fatal("sims start from different globals")
	}

	buildUploads := func(s *Simulation) []upload {
		var ups []upload
		for u := 0; u < 6; u++ {
			payload := s.Global().Params().Clone()
			for _, name := range payload.Names() {
				data := payload.Get(name)
				for i := range data {
					data[i] += float64(u+1) * 0.01 * float64(i%7)
				}
			}
			if u%2 == 1 {
				payload = payload.Without(model.GMFUserEmb)
			}
			ups = append(ups, upload{from: u, payload: payload})
		}
		return ups
	}
	foldUploads(serial, buildUploads(serial))
	foldUploads(parallel, buildUploads(parallel))
	if !param.Equal(serial.Global().Params(), parallel.Global().Params(), 0) {
		t.Fatal("sharded reduce differs from serial reduce")
	}
}
