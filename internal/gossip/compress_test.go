package gossip

import (
	"fmt"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// A compressed gossip run — every push quantized through the CPQ1
// codec, coded absolute — must be byte-identical across backends and
// worker counts, and must move at least 2× fewer push bytes than the
// dense codec (gossip pushes whole models, so 8-bit quantization alone
// carries the saving).
func TestCompressedGossipEquivalence(t *testing.T) {
	d := gossipTestDataset(t)
	comp := param.Compression{Bits: 8}
	run := func(backend string, workers int) (*Simulation, []*param.Set) {
		tr, err := transport.NewOptions(backend, transport.Options{Compression: comp})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		cfg := gossipConfig(d)
		cfg.Rounds = 3
		cfg.Workers = workers
		cfg.Transport = tr
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
	refSim, refNodes := run("inproc", 1)
	st := refSim.TransportStats()
	if st.Messages == 0 {
		t.Fatal("no pushes delivered — the test is vacuous")
	}
	if st.Bytes*2 > st.RawBytes {
		t.Errorf("compressed pushes moved %d bytes, dense-equivalent %d — want ≥2× saving",
			st.Bytes, st.RawBytes)
	}
	for _, cell := range []struct {
		backend string
		workers int
	}{{"inproc", 3}, {"wire", 3}, {"socket", 2}} {
		t.Run(fmt.Sprintf("%s/workers=%d", cell.backend, cell.workers), func(t *testing.T) {
			sim, nodes := run(cell.backend, cell.workers)
			for u := range refNodes {
				if !param.Equal(refNodes[u], nodes[u], 0) {
					t.Fatalf("node %d differs from the inproc/workers=1 reference", u)
				}
			}
			if sendsOf(sim) != sendsOf(refSim) {
				t.Fatalf("traffic %+v != %+v", sendsOf(sim), sendsOf(refSim))
			}
		})
	}
}

// Gossip's Config.Compression follows the same agreement rules as
// fed's: conflicts are rejected, zero adopts the transport's codec.
func TestGossipCompressionConfigValidation(t *testing.T) {
	d := gossipTestDataset(t)
	tr, err := transport.NewOptions("inproc", transport.Options{Compression: param.Compression{Bits: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	cfg := gossipConfig(d)
	cfg.Transport = tr
	cfg.Compression = param.Compression{Bits: 16}
	if _, err := New(cfg); err == nil {
		t.Fatal("conflicting Config.Compression and transport codec must be rejected")
	}
	cfg.Compression = param.Compression{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.cfg.Compression.Bits != 8 {
		t.Fatalf("zero Config.Compression must adopt the transport's codec, got %v", s.cfg.Compression)
	}
	cfg = gossipConfig(d)
	cfg.Compression = param.Compression{Bits: 3}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid bit width must be rejected")
	}
}
