package fed

import (
	"fmt"
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// runCompressed executes a fresh simulation on the named backend at
// the given compression level, recording the adversary's observation
// stream, and returns the simulation plus its final global parameters.
func runCompressed(t *testing.T, cfg Config, backend string, comp param.Compression, log *[]obsEntry) (*Simulation, *param.Set) {
	t.Helper()
	tr, err := transport.NewOptions(backend, transport.Options{Compression: comp})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	cfg.Transport = tr
	if log != nil {
		cfg.Observer = observerFunc(func(msg Message) {
			*log = append(*log, obsEntry{msg.Round, msg.From, msg.Params.L2Norm()})
		})
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	return s, s.Global().Params().Clone()
}

type obsEntry struct {
	round, from int
	norm        float64
}

// A compressed federated run must be byte-identical across backends
// and worker counts, like the dense golden reference: the streaming
// fold consumes uploads in sampling order whatever the scheduling, and
// every backend applies the same quantization (inproc round-trips the
// codec too). The adversary's observation stream — now emitted from
// the fold goroutine — must also be identical.
func TestCompressedBackendEquivalence(t *testing.T) {
	d := fedTestDataset(t)
	for _, bits := range []int{8, 16} {
		comp := param.Compression{Bits: bits}
		t.Run(comp.String(), func(t *testing.T) {
			cfg := fedConfig(d)
			cfg.Rounds = 3
			cfg.Workers = 1
			var refLog []obsEntry
			refSim, refParams := runCompressed(t, cfg, "inproc", comp, &refLog)
			for _, cell := range []struct {
				backend string
				workers int
			}{
				{"inproc", 4}, {"wire", 1}, {"wire", 4}, {"socket", 4},
			} {
				t.Run(fmt.Sprintf("%s/workers=%d", cell.backend, cell.workers), func(t *testing.T) {
					c := cfg
					c.Workers = cell.workers
					var log []obsEntry
					sim, params := runCompressed(t, c, cell.backend, comp, &log)
					if !param.Equal(refParams, params, 0) {
						t.Fatal("final global params differ from the inproc/workers=1 reference")
					}
					if len(log) != len(refLog) {
						t.Fatalf("observation count %d != %d", len(log), len(refLog))
					}
					for i := range refLog {
						if log[i] != refLog[i] {
							t.Fatalf("observation %d differs: %+v vs %+v", i, log[i], refLog[i])
						}
					}
					if sendsOf(sim) != sendsOf(refSim) {
						t.Fatalf("traffic %+v != %+v", sendsOf(sim), sendsOf(refSim))
					}
				})
			}
		})
	}
}

// The compressed round must actually save wire bytes: the 8-bit
// sparse+delta codec has to move at least 2× fewer upload bytes than
// the dense codec would have (RawBytes is the dense-equivalent
// accounting of the same traffic), and produce a finite model.
func TestCompressedRoundSavesBytes(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.Rounds = 3
	cfg.Workers = 2
	sim, params := runCompressed(t, cfg, "wire", param.Compression{Bits: 8}, nil)
	st := sim.TransportStats()
	if st.RawBytes == 0 || st.Bytes == 0 {
		t.Fatalf("no traffic accounted: %+v", st)
	}
	if st.Bytes*2 > st.RawBytes {
		t.Errorf("compressed uploads moved %d bytes, dense-equivalent %d — want ≥2× saving",
			st.Bytes, st.RawBytes)
	}
	if st.BroadcastBytes*2 > st.RawBroadcastBytes {
		t.Errorf("compressed broadcasts moved %d bytes, dense-equivalent %d — want ≥2× saving",
			st.BroadcastBytes, st.RawBroadcastBytes)
	}
	for i := 0; i < params.Len(); i++ {
		for _, v := range params.At(i).Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("entry %s contains a non-finite value after a compressed run", params.At(i).Name)
			}
		}
	}
}

// Resilience features must compose with the streaming fold: a faulty
// compressed run (lost sends, lost deliveries, stragglers, quorum)
// stays byte-identical across backends and worker counts.
func TestCompressedFaultyRunDeterministic(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{Seed: 9, DropProb: 0.1, SendLossProb: 0.1, DeliverLossProb: 0.1, SlowProb: 0.3, SlowLatency: 100}
	comp := param.Compression{Bits: 16}
	run := func(backend string, workers int) (*param.Set, Resilience) {
		tr, err := transport.NewOptions("faulty:"+backend, transport.Options{Compression: comp, Plan: &plan})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tr.Close() })
		cfg := fedConfig(d)
		cfg.Rounds = 4
		cfg.Workers = workers
		cfg.Transport = tr
		cfg.FaultPlan = &plan
		cfg.StragglerDeadline = 50
		cfg.Quorum = 0.5
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s.Global().Params().Clone(), s.Resilience()
	}
	refParams, refRes := run("inproc", 1)
	if refRes.UploadFailures+refRes.DeliverFailures+refRes.Stragglers == 0 {
		t.Fatal("fault plan injected nothing — the test is vacuous")
	}
	for _, cell := range []struct {
		backend string
		workers int
	}{{"inproc", 3}, {"wire", 3}, {"socket", 2}} {
		params, res := run(cell.backend, cell.workers)
		if !param.Equal(refParams, params, 0) {
			t.Fatalf("faulty:%s/workers=%d differs from the reference", cell.backend, cell.workers)
		}
		if res != refRes {
			t.Fatalf("faulty:%s resilience %+v != %+v", cell.backend, res, refRes)
		}
	}
}

// Config.Compression and Config.Transport must agree: a conflicting
// pair is rejected, a zero Config.Compression adopts the transport's
// setting, and a nil transport builds a compressed inproc.
func TestCompressionConfigValidation(t *testing.T) {
	d := fedTestDataset(t)
	tr, err := transport.NewOptions("inproc", transport.Options{Compression: param.Compression{Bits: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	cfg := fedConfig(d)
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
	if got := s.cfg.Compression; got.Bits != 8 {
		t.Fatalf("zero Config.Compression must adopt the transport's codec, got %v", got)
	}

	cfg = fedConfig(d)
	cfg.Compression = param.Compression{Bits: 12}
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid bit width must be rejected")
	}

	cfg = fedConfig(d)
	cfg.Compression = param.Compression{Bits: 8}
	s, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.tr.Compression(); got.Bits != 8 {
		t.Fatalf("nil transport must build a compressed default, got %v", got)
	}
	s.Run()
}
