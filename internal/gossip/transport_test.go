package gossip

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// sends is the push accounting every backend and worker count must
// agree on; RPC round-trips legitimately differ by backend.
type sends struct{ Messages, Bytes int64 }

func sendsOf(s *Simulation) sends {
	st := s.TransportStats()
	return sends{st.Messages, st.Bytes}
}

// runWithTransport executes a fresh simulation from cfg on the named
// backend and returns every node's final parameters plus the per-round
// HR utility curve.
func runWithTransport(t *testing.T, cfg Config, backend string) (*Simulation, []*param.Set, []float64) {
	t.Helper()
	tr, err := transport.New(backend)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cfg.Transport = tr
	var hr []float64
	cfg.OnRound = func(round int, s *Simulation) {
		hr = append(hr, s.UtilityHR(10, 20))
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	out := make([]*param.Set, len(s.nodes))
	for u := range s.nodes {
		out[u] = s.nodes[u].m.Params().Clone()
	}
	return s, out, hr
}

// Cross-backend equivalence for the decentralized protocol: for every
// (variant/policy, model, workers) cell the serializing backends —
// wire and the socket RPC path over a loopback Unix-domain socket
// server — must produce byte-identical node models, identical utility
// curves and identical delivered-message accounting.
// CI runs this under -race, exercising concurrent wire encode/decode
// and concurrent RPC round-trips from the node pool.
func TestTransportBackendEquivalence(t *testing.T) {
	d := gossipTestDataset(t)
	cases := map[string]func(*Config){
		"rand-gossip":  func(c *Config) {},
		"pers-gossip":  func(c *Config) { c.Variant = PersGossip },
		"share-less":   func(c *Config) { c.Policy = defense.ShareLess{Tau: 1} },
		"dp-sgd":       func(c *Config) { c.Policy = defense.DPSGD{Clip: 2, NoiseMultiplier: 0.05} },
		"lossy-sparse": func(c *Config) { c.LossProb = 0.2; c.WakeProb = 0.5 },
		"prme":         func(c *Config) { c.Factory = model.NewPRMEFactory(c.Dataset.NumUsers, c.Dataset.NumItems, 8) },
	}
	for name, mutate := range cases {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				cfg := gossipConfig(d)
				mutate(&cfg)
				cfg.Rounds = 4
				cfg.Workers = workers
				refSim, refParams, refHR := runWithTransport(t, cfg, "inproc")
				for _, backend := range []string{"wire", "socket"} {
					sim, params, hr := runWithTransport(t, cfg, backend)
					for u := range refParams {
						if !param.Equal(refParams[u], params[u], 0) {
							t.Fatalf("%s node %d params differ from inproc", backend, u)
						}
					}
					for r := range refHR {
						if hr[r] != refHR[r] {
							t.Fatalf("%s utility curve differs from inproc at round %d", backend, r)
						}
					}
					if sendsOf(sim) != sendsOf(refSim) {
						t.Fatalf("%s traffic %+v != inproc %+v", backend, sendsOf(sim), sendsOf(refSim))
					}
				}
			})
		}
	}
}

// The receiving adversary's observation stream (sender, receiver,
// payload values) must be identical under the wire backends.
func TestTransportObserverSequence(t *testing.T) {
	d := gossipTestDataset(t)
	type seen struct {
		round, from, to int
		norm            float64
	}
	record := func(backend string) []seen {
		tr, err := transport.New(backend)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		var log []seen
		cfg := gossipConfig(d)
		cfg.Workers = 4
		cfg.Transport = tr
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
	ref := record("inproc")
	for _, backend := range []string{"wire", "socket"} {
		got := record(backend)
		if len(ref) != len(got) {
			t.Fatalf("%s observation count %d != inproc %d", backend, len(got), len(ref))
		}
		for i := range ref {
			if ref[i] != got[i] {
				t.Fatalf("%s observation %d differs: %+v vs %+v", backend, i, got[i], ref[i])
			}
		}
	}
}
