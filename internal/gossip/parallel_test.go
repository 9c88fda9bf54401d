package gossip

import (
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// finalParams runs a fresh simulation from cfg with the given worker
// count and returns every node's final parameter set.
func finalParams(t *testing.T, cfg Config, workers int) (*Simulation, []*param.Set) {
	t.Helper()
	cfg.Workers = workers
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	out := make([]*param.Set, len(s.nodes))
	for u := range s.nodes {
		out[u] = s.nodes[u].m.Params().Clone()
	}
	return s, out
}

// Workers=1 and Workers=N must produce byte-identical node models
// across variants, defenses and failure injection: every node owns its
// RNG stream and delivery happens sequentially between the parallel
// phases.
func TestSerialParallelEquivalence(t *testing.T) {
	d := gossipTestDataset(t)
	cases := map[string]func(*Config){
		"rand-gossip":  func(c *Config) {},
		"pers-gossip":  func(c *Config) { c.Variant = PersGossip },
		"share-less":   func(c *Config) { c.Policy = defense.ShareLess{Tau: 1} },
		"dp-sgd":       func(c *Config) { c.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05} },
		"lossy-sparse": func(c *Config) { c.LossProb = 0.2; c.WakeProb = 0.5 },
		// NeuMF scores its forward pass through model-owned scratch;
		// with Pers-Gossip this exercises the cross-node Relevance
		// calls of view refresh, which must not run concurrently.
		"pers-neumf": func(c *Config) {
			c.Variant = PersGossip
			c.Factory = model.NewNeuMFFactory(c.Dataset.NumUsers, c.Dataset.NumItems, 8)
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := gossipConfig(d)
			mutate(&cfg)
			serialSim, serial := finalParams(t, cfg, 1)
			parallelSim, parallel := finalParams(t, cfg, 4)
			for u := range serial {
				if !param.Equal(serial[u], parallel[u], 0) {
					t.Fatalf("node %d params differ between Workers=1 and Workers=4", u)
				}
			}
			if sendsOf(serialSim) != sendsOf(parallelSim) {
				t.Fatalf("traffic differs: %+v vs %+v", sendsOf(serialSim), sendsOf(parallelSim))
			}
		})
	}
}

// The adversary's observation stream (sender, receiver, payload) must
// not depend on the worker count.
func TestParallelObserverSequence(t *testing.T) {
	d := gossipTestDataset(t)
	type seen struct {
		round, from, to int
		norm            float64
	}
	record := func(workers int) []seen {
		var log []seen
		cfg := gossipConfig(d)
		cfg.Workers = workers
		cfg.Observer = observerFunc2(func(msg Message) {
			log = append(log, seen{msg.Round, msg.From, msg.To, msg.Params.L2Norm()})
		})
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return log
	}
	serial := record(1)
	parallel := record(4)
	if len(serial) != len(parallel) {
		t.Fatalf("observation count differs: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("observation %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

// Re-running the same seeded configuration must reproduce identical
// models — covers the deterministic candidate ordering in persView
// (map iteration order must not leak into peer selection).
func TestPersGossipReproducible(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Variant = PersGossip
	cfg.Rounds = 8
	_, a := finalParams(t, cfg, 2)
	_, b := finalParams(t, cfg, 2)
	for u := range a {
		if !param.Equal(a[u], b[u], 0) {
			t.Fatalf("node %d params differ across identical runs", u)
		}
	}
}
