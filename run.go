package ciarec

import (
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// Defense selects a mitigation strategy (§III-D, §III-E). The zero
// value is no defense (full model sharing).
type Defense struct {
	kind  string
	tau   float64
	clip  float64
	noise float64
}

// NoDefense is the full-model-sharing baseline.
func NoDefense() Defense { return Defense{kind: "full"} }

// ShareLess keeps user embeddings on-device and regularizes item
// embedding drift with factor tau (Eq. 2). Tau controls the
// privacy/utility trade-off: the reproduction's experiments use 5,
// which lands the defense in the paper's Figure-3 regime (large attack
// drop, single-digit-to-modest utility cost); weak tau (≲2) leaves
// item-embedding drift informative enough that CIA's fictive-user
// adaptation can match the undefended attack.
func ShareLess(tau float64) Defense { return Defense{kind: "share-less", tau: tau} }

// DPSGD applies user-level DP-SGD with L2 clipping threshold clip and
// the given Gaussian noise multiplier (noise std = multiplier × clip).
func DPSGD(clip, noiseMultiplier float64) Defense {
	return Defense{kind: "dp-sgd", clip: clip, noise: noiseMultiplier}
}

// DPSGDWithEpsilon calibrates the noise multiplier so that `rounds`
// rounds of training satisfy (epsilon, delta)-DP, then behaves like
// DPSGD. Pass math.Inf(1) for a no-noise baseline.
func DPSGDWithEpsilon(clip, epsilon, delta float64, rounds int) Defense {
	iota := defense.Accountant{Delta: delta, Rounds: rounds}.Calibrate(epsilon)
	return DPSGD(clip, iota)
}

// Name returns the defense's identifier ("full", "share-less",
// "dp-sgd").
func (d Defense) Name() string {
	if d.kind == "" {
		return "full"
	}
	return d.kind
}

func (d Defense) policy() defense.Policy {
	switch d.kind {
	case "share-less":
		return defense.ShareLess{Tau: d.tau}
	case "dp-sgd":
		return defense.DPSGD{Clip: d.clip, NoiseMultiplier: d.noise}
	default:
		return defense.FullSharing{}
	}
}

// TransportKind selects the round-transport backend carrying every
// parameter transfer inside the simulated protocols (see
// internal/transport). Results are byte-identical across backends; the
// wire backends exist to exercise — and cost — the serialization path
// a real deployment would pay.
type TransportKind string

const (
	// TransportInproc passes payload pointers in memory (the default).
	TransportInproc TransportKind = "inproc"
	// TransportWire round-trips every transfer through the binary wire
	// codec using pooled buffers.
	TransportWire TransportKind = "wire"
	// TransportSocket pushes every transfer through the framed RPC
	// protocol over a Unix-domain socket: against an in-process
	// loopback server by default, or an external ciaworker process
	// when TransportAddr is set — the round then spans OS processes.
	TransportSocket TransportKind = "socket"
	// TransportSocketTCP is TransportSocket over TCP.
	TransportSocketTCP TransportKind = "socket-tcp"
)

// RunConfig describes one end-to-end experiment: train a collaborative
// recommender and attack it with CIA, with every user playing the
// adversary (the paper's evaluation protocol, §V-C).
type RunConfig struct {
	// Dataset must have an evaluation split applied.
	Dataset *Dataset
	// Model defaults to GMF.
	Model ModelFamily
	// Protocol defaults to Federated.
	Protocol Protocol
	// Defense defaults to NoDefense.
	Defense Defense
	// Transport defaults to TransportInproc.
	Transport TransportKind
	// TransportAddr dials an external RPC worker (a running ciaworker
	// process) at this address instead of a loopback server: a socket
	// path for TransportSocket, a host:port for TransportSocketTCP.
	// Requires one of the socket transports.
	TransportAddr string
	// Faults is a deterministic fault-injection spec, e.g.
	// "seed=7,drop=0.05,send-loss=0.05,slow=0.1,slow-latency=500ms" or
	// "default": the run's transport is wrapped in the seed-driven
	// fault injector and the simulators apply the same plan's straggler
	// latencies. A (Seed, Faults) pair reproduces the chaos run exactly
	// on every backend. Empty disables injection. Alternatively prefix
	// the Transport kind with "faulty:" for the default plan.
	Faults string
	// Retry tunes the socket transports' RPC retry policy, e.g.
	// "attempts=6,backoff=5ms,timeout=2s". Empty keeps the defaults
	// (4 attempts, capped jittered exponential backoff, 30s deadline).
	Retry string
	// Compression selects the wire codec for every parameter transfer:
	// "" or "off" keeps the lossless dense codec, "8" / "8bit" and
	// "16" / "16bit" run uploads and broadcasts through the
	// sparse+quantized delta codec at that bit width (see
	// internal/param). Compressed runs stay deterministic across
	// backends and worker counts but are quantized, so they are not
	// byte-identical to uncompressed runs.
	Compression string
	// StragglerDeadline is the FL server's per-round upload deadline:
	// uploads whose fault-plan latency exceeds it are observed by the
	// adversary but excluded from aggregation. 0 disables. Ignored
	// under gossip protocols.
	StragglerDeadline time.Duration
	// Quorum is the minimum fraction of sampled clients whose uploads
	// must arrive in time for the FL round to aggregate; below it the
	// round keeps the previous global model. 0 disables. Ignored under
	// gossip protocols.
	Quorum float64

	// Rounds defaults to 25 for FL and 80 for gossip.
	Rounds int
	// CommunitySize is the attack's K (default: 5% of users, the
	// paper's regime).
	CommunitySize int
	// Momentum is the CIA β (default 0.9; the paper uses 0.99 over
	// longer horizons).
	Momentum float64
	// ColluderFraction > 0 gives the gossip adversary a coalition of
	// that fraction of nodes (§VI-D). Ignored under Federated.
	ColluderFraction float64
	// ClientFraction < 1 samples that fraction of clients per FedAvg
	// round instead of full participation. 0 defaults to 1 (the paper's
	// setting). Ignored under gossip protocols.
	ClientFraction float64
	// DropoutProb injects per-round client upload failures (crash after
	// training, before upload) with this probability. Ignored under
	// gossip protocols.
	DropoutProb float64
	// EmbeddingDim defaults to 8.
	EmbeddingDim int
	// LocalEpochs defaults to 2.
	LocalEpochs int
	// TrackUtility also records the per-round recommendation quality
	// (HR@10 for GMF, F1@10 for PRME).
	TrackUtility bool
	Seed         uint64
}

// Report is the outcome of Run, mirroring the paper's metrics (§V-C).
type Report struct {
	// MaxAAC is the maximum average attack accuracy over rounds.
	MaxAAC float64
	// MaxRound is the round where MaxAAC was attained.
	MaxRound int
	// Best10AAC is the minimum accuracy among the best 10% adversaries
	// at MaxRound.
	Best10AAC float64
	// RandomBound is the expected accuracy of random guessing (K/N).
	RandomBound float64
	// UpperBound is the adversaries' mean observation-limited accuracy
	// ceiling (1 for the FL server).
	UpperBound float64
	// AACSeries is the average attack accuracy per round.
	AACSeries []float64
	// UtilitySeries is the per-round utility when TrackUtility is set.
	UtilitySeries []float64
}

// BestUtility returns the best recorded utility (0 when not tracked).
func (r *Report) BestUtility() float64 {
	if len(r.UtilitySeries) == 0 {
		return 0
	}
	return mathx.Max(r.UtilitySeries)
}

// LeakageFactor returns MaxAAC / RandomBound — "how many times better
// than guessing" the adversary is (the paper headlines ~10x in FL).
func (r *Report) LeakageFactor() float64 {
	if r.RandomBound == 0 {
		return math.Inf(1)
	}
	return r.MaxAAC / r.RandomBound
}

func (c *RunConfig) spec() experiments.Spec {
	s := experiments.BenchSpec()
	if c.Rounds > 0 {
		s.Rounds = c.Rounds
		s.GLRounds = c.Rounds
	}
	if c.Momentum > 0 {
		s.Beta = c.Momentum
	}
	if c.EmbeddingDim > 0 {
		s.Dim = c.EmbeddingDim
	}
	if c.LocalEpochs > 0 {
		s.LocalEpochs = c.LocalEpochs
	}
	if c.CommunitySize > 0 {
		s.KFrac = float64(c.CommunitySize) / float64(c.Dataset.NumUsers())
	}
	s.Seed = c.Seed
	s.Transport = string(c.Transport)
	s.TransportAddr = c.TransportAddr
	if c.Faults != "" {
		// Parse errors were caught by normalize.
		if p, err := transport.ParseFaultPlan(c.Faults); err == nil && p.Enabled() {
			s.FaultPlan = &p
		}
	}
	if c.Retry != "" {
		if rp, err := transport.ParseRetryPolicy(c.Retry); err == nil {
			s.Retry = &rp
		}
	}
	if comp, err := param.ParseCompression(c.Compression); err == nil {
		s.Compression = comp
	}
	s.StragglerDeadline = c.StragglerDeadline
	s.Quorum = c.Quorum
	return s
}

func (c *RunConfig) normalize() error {
	if c.Dataset == nil {
		return fmt.Errorf("ciarec: RunConfig.Dataset is required")
	}
	if err := c.Dataset.ensureSplit(); err != nil {
		return err
	}
	if c.Model == "" {
		c.Model = GMF
	}
	switch c.Model {
	case GMF, PRME, BPRMF, NeuMF:
	default:
		return fmt.Errorf("ciarec: unknown model %q", c.Model)
	}
	if c.Protocol == "" {
		c.Protocol = Federated
	}
	switch c.Protocol {
	case Federated, RandGossip, PersGossip:
	default:
		return fmt.Errorf("ciarec: unknown protocol %q", c.Protocol)
	}
	if c.Rounds < 0 {
		return fmt.Errorf("ciarec: Rounds %d must not be negative (0 selects the default)", c.Rounds)
	}
	if c.ColluderFraction < 0 || c.ColluderFraction >= 1 {
		return fmt.Errorf("ciarec: ColluderFraction %v out of [0,1)", c.ColluderFraction)
	}
	if c.ClientFraction < 0 || c.ClientFraction > 1 {
		return fmt.Errorf("ciarec: ClientFraction %v out of [0,1] (0 selects full participation)", c.ClientFraction)
	}
	if c.DropoutProb < 0 || c.DropoutProb >= 1 {
		return fmt.Errorf("ciarec: DropoutProb %v out of [0,1)", c.DropoutProb)
	}
	if !transport.Known(string(c.Transport)) {
		return fmt.Errorf("ciarec: unknown transport %q", c.Transport)
	}
	if c.TransportAddr != "" {
		switch TransportKind(strings.TrimPrefix(string(c.Transport), transport.FaultyPrefix)) {
		case TransportSocket, TransportSocketTCP:
		default:
			return fmt.Errorf("ciarec: TransportAddr requires a socket transport, got %q", c.Transport)
		}
	}
	if _, err := transport.ParseFaultPlan(c.Faults); err != nil {
		return fmt.Errorf("ciarec: Faults: %w", err)
	}
	if _, err := transport.ParseRetryPolicy(c.Retry); err != nil {
		return fmt.Errorf("ciarec: Retry: %w", err)
	}
	if _, err := param.ParseCompression(c.Compression); err != nil {
		return fmt.Errorf("ciarec: Compression: %w", err)
	}
	if c.Quorum < 0 || c.Quorum > 1 {
		return fmt.Errorf("ciarec: Quorum %v out of [0,1]", c.Quorum)
	}
	if c.StragglerDeadline < 0 {
		return fmt.Errorf("ciarec: StragglerDeadline %v is negative", c.StragglerDeadline)
	}
	return nil
}

// Run executes the experiment described by cfg and returns the attack
// report.
func Run(cfg RunConfig) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	spec := cfg.spec()
	utility := experiments.UtilityNone
	if cfg.TrackUtility {
		utility = experiments.UtilityHR
		if cfg.Model == PRME {
			utility = experiments.UtilityF1
		}
	}
	var (
		res experiments.RunResult
		err error
	)
	if cfg.Protocol == Federated {
		res, err = experiments.RunFLCIA(experiments.FLOpts{
			Data:           cfg.Dataset.inner,
			Family:         string(cfg.Model),
			Policy:         cfg.Defense.policy(),
			Spec:           spec,
			Utility:        utility,
			ClientFraction: cfg.ClientFraction,
			DropoutProb:    cfg.DropoutProb,
		})
	} else {
		variant := gossip.RandGossip
		if cfg.Protocol == PersGossip {
			variant = gossip.PersGossip
		}
		if cfg.Rounds == 0 {
			spec.GLRounds = 80
		}
		res, err = experiments.RunGLCIA(experiments.GLOpts{
			Data:         cfg.Dataset.inner,
			Family:       string(cfg.Model),
			Policy:       cfg.Defense.policy(),
			Variant:      variant,
			Spec:         spec,
			Utility:      utility,
			ColluderFrac: cfg.ColluderFraction,
		})
	}
	if err != nil {
		return nil, err
	}
	return &Report{
		MaxAAC:        res.Attack.MaxAAC,
		MaxRound:      res.Attack.MaxRound,
		Best10AAC:     res.Attack.Best10AAC,
		RandomBound:   res.Attack.RandomBound,
		UpperBound:    res.Attack.UpperBound,
		AACSeries:     res.Attack.Series,
		UtilitySeries: res.Utility,
	}, nil
}

// TargetedConfig describes a single-target attack: the adversary
// hand-crafts V_target (e.g. from a public POI category, §II) and
// wants the K users most interested in it.
type TargetedConfig struct {
	Dataset *Dataset
	// Target is the crafted item set (required).
	Target []int
	// CommunitySize is K (required).
	CommunitySize int
	// Model defaults to GMF; Defense defaults to NoDefense.
	Model   ModelFamily
	Defense Defense
	// Rounds defaults to 25; Momentum to 0.9; EmbeddingDim to 8;
	// LocalEpochs to 2.
	Rounds       int
	Momentum     float64
	EmbeddingDim int
	LocalEpochs  int
	Seed         uint64
}

// RunTargeted trains a federation and returns the K users CIA ranks as
// most interested in the target item set.
func RunTargeted(cfg TargetedConfig) ([]int, error) {
	rc := RunConfig{
		Dataset:      cfg.Dataset,
		Model:        cfg.Model,
		Defense:      cfg.Defense,
		Rounds:       cfg.Rounds,
		Momentum:     cfg.Momentum,
		EmbeddingDim: cfg.EmbeddingDim,
		LocalEpochs:  cfg.LocalEpochs,
		Seed:         cfg.Seed,
	}
	if err := rc.normalize(); err != nil {
		return nil, err
	}
	if cfg.CommunitySize <= 0 {
		return nil, fmt.Errorf("ciarec: TargetedConfig.CommunitySize is required")
	}
	return experiments.RunTargetedFL(
		cfg.Dataset.inner, string(rc.Model), rc.spec(),
		cfg.Target, cfg.CommunitySize, cfg.Defense.policy())
}

// jaccard is defined here to keep ciarec.go free of mathx imports.
func jaccard(d interface {
	TrainSet(int) map[int]struct{}
}, u, v int) float64 {
	return mathx.JaccardInt(d.TrainSet(u), d.TrainSet(v))
}
