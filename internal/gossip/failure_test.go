package gossip

import "testing"

func TestLossProbDropsMessages(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 10
	cfg.LossProb = 0.5
	obs := &recordingObserver{}
	cfg.Observer = obs
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	expected := 0.5 * float64(d.NumUsers*cfg.Rounds)
	if got := float64(len(obs.msgs)); got < 0.5*expected || got > 1.5*expected {
		t.Fatalf("delivered = %v, want ~%v under 50%% loss", got, expected)
	}
	if got := s.TransportStats().Messages; got != int64(len(obs.msgs)) {
		t.Fatalf("traffic %d != observed %d", got, len(obs.msgs))
	}
}

// Gossip must keep converging despite heavy message loss — nodes fall
// back on their own local training.
func TestLossDoesNotBreakTraining(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 20
	cfg.Train.Epochs = 2
	cfg.LossProb = 0.4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := s.UtilityHR(10, 30)
	s.Run()
	after := s.UtilityHR(10, 30)
	if after <= before {
		t.Fatalf("training under loss did not improve HR: %.3f -> %.3f", before, after)
	}
}

func TestLossProbValidation(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.LossProb = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("LossProb=1 must be rejected")
	}
}

func TestGossipTrafficAccounting(t *testing.T) {
	d := gossipTestDataset(t)
	cfg := gossipConfig(d)
	cfg.Rounds = 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	tr := s.TransportStats()
	if tr.Messages != int64(d.NumUsers*3) {
		t.Fatalf("messages = %d, want %d", tr.Messages, d.NumUsers*3)
	}
	if tr.Bytes <= 0 {
		t.Fatal("no bytes accounted")
	}
	perMsg := tr.Bytes / tr.Messages
	if perMsg != int64(s.Node(0).Params().WireBytes()) {
		t.Fatalf("per-message bytes %d != model wire size %d",
			perMsg, s.Node(0).Params().WireBytes())
	}
}
