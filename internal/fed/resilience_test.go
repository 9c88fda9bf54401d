package fed

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// faultyTransport builds the named backend wrapped in the fault
// injector driven by plan.
func faultyTransport(t *testing.T, backend string, plan transport.FaultPlan) transport.Transport {
	t.Helper()
	tr, err := transport.NewOptions(transport.FaultyPrefix+backend, transport.Options{Plan: &plan})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// A round whose broadcast open fails is a blackout: nobody trains, the
// global model stands still, and the round still completes (callbacks,
// counter).
func TestBlackoutRoundKeepsGlobal(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{Seed: 1, BroadcastFailProb: 1}
	cfg := fedConfig(d)
	cfg.Rounds = 3
	cfg.Transport = faultyTransport(t, "inproc", plan)
	cfg.FaultPlan = &plan
	var uploads int
	cfg.Observer = observerFunc(func(Message) { uploads++ })
	var rounds []int
	cfg.OnRound = func(round int, s *Simulation) { rounds = append(rounds, round) }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := s.Global().Params().Clone()
	s.Run()
	if !param.Equal(initial, s.Global().Params(), 0) {
		t.Fatal("blackout rounds must leave the global model untouched")
	}
	if uploads != 0 {
		t.Fatalf("observer saw %d uploads during total blackout", uploads)
	}
	r := s.Resilience()
	if r.BlackoutRounds != 3 {
		t.Fatalf("BlackoutRounds = %d, want 3", r.BlackoutRounds)
	}
	if len(rounds) != 3 || s.Round() != 3 {
		t.Fatalf("blackout rounds must still advance: OnRound fired %d times, Round() = %d", len(rounds), s.Round())
	}
	if st := s.TransportStats(); st.InjectedFaults != 3 {
		t.Fatalf("InjectedFaults = %d, want 3", st.InjectedFaults)
	}
}

// A client whose broadcast delivery fails skips the round entirely: no
// training, no upload, no observation — and with every delivery lost,
// the global model never moves.
func TestDeliverFailureSkipsRound(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{Seed: 1, DeliverLossProb: 1}
	cfg := fedConfig(d)
	cfg.Rounds = 2
	cfg.Transport = faultyTransport(t, "inproc", plan)
	var uploads int
	cfg.Observer = observerFunc(func(Message) { uploads++ })
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := s.Global().Params().Clone()
	s.Run()
	if !param.Equal(initial, s.Global().Params(), 0) {
		t.Fatal("with every delivery lost the global model must stand still")
	}
	if uploads != 0 {
		t.Fatalf("observer saw %d uploads from clients that never got the model", uploads)
	}
	r := s.Resilience()
	want := int64(d.NumUsers * cfg.Rounds)
	if r.DeliverFailures != want {
		t.Fatalf("DeliverFailures = %d, want %d", r.DeliverFailures, want)
	}
	if r.UploadFailures != 0 || r.BlackoutRounds != 0 {
		t.Fatalf("unexpected extra failures: %+v", r)
	}
}

// An upload lost in transit is invisible to both the server and the
// adversary — the clients still trained (their private state moved),
// but the global model never hears from them.
func TestUploadLossNotObserved(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{Seed: 1, SendLossProb: 1}
	cfg := fedConfig(d)
	cfg.Rounds = 2
	cfg.Transport = faultyTransport(t, "inproc", plan)
	var uploads int
	cfg.Observer = observerFunc(func(Message) { uploads++ })
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	initial := s.Global().Params().Clone()
	s.Run()
	if !param.Equal(initial, s.Global().Params(), 0) {
		t.Fatal("with every upload lost the global model must stand still")
	}
	if uploads != 0 {
		t.Fatalf("adversary observed %d uploads that were lost in transit", uploads)
	}
	r := s.Resilience()
	want := int64(d.NumUsers * cfg.Rounds)
	if r.UploadFailures != want {
		t.Fatalf("UploadFailures = %d, want %d", r.UploadFailures, want)
	}
}

// Stragglers are the attack surface the paper's adversary loves: the
// upload is observed (it arrived, late) but excluded from aggregation.
// The straggler schedule is a pure plan function, so the test predicts
// the exact count.
func TestStragglerObservedButExcluded(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{Seed: 5, SlowProb: 0.5, SlowLatency: 500 * time.Millisecond}
	deadline := 100 * time.Millisecond

	run := func(withDeadline bool) (*Simulation, *param.Set, int) {
		cfg := fedConfig(d)
		cfg.Rounds = 3
		cfg.FaultPlan = &plan
		if withDeadline {
			cfg.StragglerDeadline = deadline
		}
		var uploads int
		cfg.Observer = observerFunc(func(Message) { uploads++ })
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s, s.Global().Params().Clone(), uploads
	}

	sim, gotParams, observed := run(true)
	wantObserved := d.NumUsers * 3
	if observed != wantObserved {
		t.Fatalf("adversary observed %d uploads, want %d (stragglers included)", observed, wantObserved)
	}
	var wantStragglers int64
	for round := 0; round < 3; round++ {
		for u := 0; u < d.NumUsers; u++ {
			if plan.Latency(round, u) > deadline {
				wantStragglers++
			}
		}
	}
	if wantStragglers == 0 {
		t.Fatal("test plan produced no stragglers — pick a different seed")
	}
	r := sim.Resilience()
	if r.Stragglers != wantStragglers {
		t.Fatalf("Stragglers = %d, want %d (predicted from the plan)", r.Stragglers, wantStragglers)
	}

	// Excluding stragglers must actually change the aggregate.
	_, refParams, _ := run(false)
	if param.Equal(refParams, gotParams, 0) {
		t.Fatal("straggler exclusion had no effect on the global model")
	}
}

// Below quorum the round keeps the previous global model. The miss
// schedule is predictable from the plan, and a quorum of zero restores
// the pre-resilience behaviour (aggregate whatever arrived).
func TestQuorumKeepsPreviousGlobal(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{Seed: 5, SlowProb: 0.5, SlowLatency: 500 * time.Millisecond}
	deadline := 100 * time.Millisecond

	run := func(quorum float64) (*Simulation, *param.Set) {
		cfg := fedConfig(d)
		cfg.Rounds = 3
		cfg.FaultPlan = &plan
		cfg.StragglerDeadline = deadline
		cfg.Quorum = quorum
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s, s.Global().Params().Clone()
	}

	// Predict per-round timely arrivals from the plan (full sampling, no
	// other faults: arrivals = non-stragglers).
	quorum := 0.9
	var wantMisses int64
	for round := 0; round < 3; round++ {
		timely := 0
		for u := 0; u < d.NumUsers; u++ {
			if plan.Latency(round, u) <= deadline {
				timely++
			}
		}
		if timely < int(math.Ceil(quorum*float64(d.NumUsers))) {
			wantMisses++
		}
	}
	if wantMisses == 0 {
		t.Fatal("quorum 0.9 never misses under this plan — pick a different seed")
	}
	strict, strictParams := run(quorum)
	if got := strict.Resilience().QuorumMisses; got != wantMisses {
		t.Fatalf("QuorumMisses = %d, want %d (predicted from the plan)", got, wantMisses)
	}
	lax, laxParams := run(0)
	if got := lax.Resilience().QuorumMisses; got != 0 {
		t.Fatalf("QuorumMisses = %d with quorum disabled", got)
	}
	if wantMisses == 3 {
		// Every round missed: the strict run's global model never moved.
		sInit, err := New(func() Config {
			cfg := fedConfig(d)
			cfg.Rounds = 3
			return cfg
		}())
		if err != nil {
			t.Fatal(err)
		}
		if !param.Equal(sInit.Global().Params(), strictParams, 0) {
			t.Fatal("all-miss quorum run must keep the initial global model")
		}
	}
	if param.Equal(strictParams, laxParams, 0) {
		t.Fatal("quorum gating had no effect on the global model")
	}
}

// The tentpole determinism guarantee for chaos runs: the same (seed,
// plan) pair produces byte-identical models, utility curves and fault
// accounting on every backend and worker count — fault injection does
// not reopen the scheduling-dependence hole the transport seam closed.
func TestFaultyBackendEquivalence(t *testing.T) {
	d := fedTestDataset(t)
	plan := transport.FaultPlan{
		Seed:              3,
		DropProb:          0.1,
		SendLossProb:      0.1,
		DeliverLossProb:   0.1,
		BroadcastFailProb: 0.1,
		SlowProb:          0.3,
		SlowLatency:       500 * time.Millisecond,
	}

	run := func(backend string, workers int) (*Simulation, *param.Set, []float64) {
		cfg := fedConfig(d)
		cfg.Rounds = 4
		cfg.Workers = workers
		cfg.Transport = faultyTransport(t, backend, plan)
		cfg.FaultPlan = &plan
		cfg.StragglerDeadline = 100 * time.Millisecond
		cfg.Quorum = 0.3
		var hr []float64
		cfg.OnRound = func(round int, s *Simulation) {
			hr = append(hr, s.UtilityHR(10, 20))
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		return s, s.Global().Params().Clone(), hr
	}

	refSim, refParams, refHR := run("inproc", 1)
	ref := refSim.Resilience()
	// The plan must actually exercise every failure path, or this test
	// proves nothing.
	if ref.DeliverFailures == 0 || ref.UploadFailures == 0 || ref.Stragglers == 0 {
		t.Fatalf("chaos plan too tame: %+v", ref)
	}
	for _, backend := range []string{"inproc", "wire", "socket"} {
		for _, workers := range []int{1, 3} {
			if backend == "inproc" && workers == 1 {
				continue
			}
			t.Run(fmt.Sprintf("%s/workers=%d", backend, workers), func(t *testing.T) {
				sim, params, hr := run(backend, workers)
				if !param.Equal(refParams, params, 0) {
					t.Fatal("final global params differ from the reference chaos run")
				}
				for r := range refHR {
					if hr[r] != refHR[r] {
						t.Fatalf("utility curve differs at round %d", r)
					}
				}
				if sim.Resilience() != ref {
					t.Fatalf("fault accounting %+v != reference %+v", sim.Resilience(), ref)
				}
				ws, is := sim.TransportStats(), refSim.TransportStats()
				if ws.InjectedFaults != is.InjectedFaults {
					t.Fatalf("injected %d faults, reference injected %d", ws.InjectedFaults, is.InjectedFaults)
				}
				if sendsOf(sim) != sendsOf(refSim) {
					t.Fatalf("surviving traffic %+v != reference %+v", sendsOf(sim), sendsOf(refSim))
				}
			})
		}
	}
}

// A fault plan with nothing enabled must be byte-identical to no plan
// at all: the resilience layer is invisible until switched on.
func TestInactivePlanIsFree(t *testing.T) {
	d := fedTestDataset(t)
	base := fedConfig(d)
	base.Rounds = 3
	ref, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	ref.Run()

	cfg := fedConfig(d)
	cfg.Rounds = 3
	cfg.FaultPlan = &transport.FaultPlan{Seed: 99} // no probabilities: inactive
	cfg.StragglerDeadline = time.Second
	cfg.Quorum = 0.5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !param.Equal(ref.Global().Params(), s.Global().Params(), 0) {
		t.Fatal("an inactive fault plan changed the run")
	}
	if r := s.Resilience(); r != (Resilience{}) {
		t.Fatalf("inactive plan accumulated fault accounting: %+v", r)
	}
}
