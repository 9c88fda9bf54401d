package main

import (
	"fmt"
	"runtime"

	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/param"
)

// workload is one benchmark input: a dataset generator, a protocol and
// the experiments.Spec its simulation is wired with. A run derives
// datasetsPerRun seeds from its own and cycles through them, one
// episode each — a fresh set-up followed by spec.Rounds (fed) or
// spec.GLRounds (gossip) timed rounds — until its time budget is spent.
// Every episode of one dataset computes the same models, attack series
// and utility curve.
type workload struct {
	name string
	// gossip selects the gossip simulator (Rand-Gossip); otherwise the
	// run is a FedAvg federation.
	gossip bool
	// attack puts CIA adversaries on the traffic: at the server with
	// every user a target (fed), or one single-target instance per node
	// placement (gossip), exactly as experiments.RunFLCIA/RunGLCIA do.
	attack bool
	// users sizes the generated population; makeData builds and splits
	// it from the workload seed.
	users    int
	makeData func(users int, seed uint64) (*dataset.Dataset, error)
	// clientFraction samples clients per fed round (0: everyone).
	clientFraction float64
	// evalEvery measures HR@HRK every that many rounds; 0 measures it
	// once, after the last round of an episode.
	evalEvery int
	// datasets is how many inputs a run derives from its seed
	// (0: datasetsPerRun).
	datasets int
	spec     experiments.Spec
}

// rounds is the number of rounds one episode runs.
func (w *workload) rounds() int {
	if w.gossip {
		return w.spec.GLRounds
	}
	return w.spec.Rounds
}

// paperSpec is the paper's attack and evaluation setting (Tables II
// and III): GMF dim 16, β 0.99, K = 5% of users, HR@20 over 99 sampled
// negatives, 2 local epochs, one worker per CPU.
func paperSpec() experiments.Spec {
	s := experiments.PaperSpec()
	s.Workers = runtime.NumCPU()
	return s
}

// movieLensLike is the MovieLens-100k-shaped preset scaled to users,
// split leave-one-out for HR@K.
func movieLensLike(users int, seed uint64) (*dataset.Dataset, error) {
	d := dataset.MovieLensLike(float64(users)/943, seed)
	experiments.SplitFor("gmf", d)
	return d, nil
}

// powerLaw is the million-user preset's population shape (Zipf 1.1
// popularity, ~25 items per user, one community per 1000 users) at
// users × users, split leave-one-out.
func powerLaw(users int, seed uint64) (*dataset.Dataset, error) {
	communities := users / 1000
	if communities < 2 {
		communities = 2
	}
	d, err := dataset.GenerateSynthetic(dataset.SyntheticConfig{
		Name: "powerlaw", NumUsers: users, NumItems: users,
		NumCommunities: communities, MeanItemsPerUser: 25, MinItemsPerUser: 2,
		Affinity: 0.85, ZipfExponent: 1.1, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	experiments.SplitFor("gmf", d)
	return d, nil
}

// workloads returns the benchmark's workloads. Each comment says why
// the workload exists and which per-layer metrics it should move, so a
// change can cite the workload by name. Shares of round wall-clock are
// from traced runs at seed 1 on a 2-core Xeon VM (busy times summed over
// the two workers count half).
func workloads() []*workload {
	// fl-cia: the paper's Table II FL cell. FedAvg over 200
	// MovieLens-like users with full participation and 20 rounds per
	// episode; every user is a CIA target (β 0.99), HR@20 is measured
	// every round, traffic is dense inproc. The attack dominates:
	// CIA.EndRound scoring takes ~55% of a ~170 ms round
	// (attack.score_ms, attack.senders_scored), local training ~34%
	// (model.train_busy_ms), Accuracies ~5% (attack.accuracy_ms). Uploads
	// take the dense staged aggregation path (fed.aggregate_ms,
	// fed.round_ms). Little attack.observe_ms (~2%) or attack.states_mb,
	// no transport cost.
	fl := paperSpec()
	fl.Rounds = 20
	flCIA := &workload{
		name: "fl-cia", attack: true, users: 200, makeData: movieLensLike,
		evalEvery: 1, spec: fl,
	}

	// gl-cia: the paper's Table III Rand-Gossip cell. 200 MovieLens-like
	// nodes with full sharing; every node is an adversary with its own
	// single-target CIA, HR@20 every 10 rounds, inproc, 80 rounds per
	// episode (a gossip adversary sees about one model per round and
	// needs that horizon to beat the random bound). Local training
	// dominates, ~72% of a ~58 ms round (model.train_busy_ms;
	// parx.idle_frac, the wait for the slowest node). The attack is many
	// small instances fed one message at a time (attack.observe_ms ~11%,
	// attack.observe_calls; attack.score_ms only ~5%), and their momentum
	// states (attack.states_mb, ~275 MB) set rss_peak_mb and
	// heap_retained_mb. It moves the gossip.* metrics and none of fed.*.
	gl := paperSpec()
	gl.GLRounds = 80
	glCIA := &workload{
		name: "gl-cia", gossip: true, attack: true, users: 200,
		makeData: movieLensLike, evalEvery: 10, spec: gl,
	}

	// fl-sampled-socket: the million-user preset's shape scaled to one
	// host. FedAvg with GMF dim 8 over a 3000 × 3000 power-law
	// population, 40 clients sampled per round, 30 rounds per episode, no
	// adversary, HR@20 once at the end, every transfer through the
	// loopback socket transport with 8-bit compression. The transport
	// dominates: send ~73% and broadcast ~12% of a ~79 ms round
	// (fed.send_busy_ms, fed.broadcast_busy_ms, transport.rpc_us,
	// transport.wire_mb_per_round, transport.compress_ratio); training is
	// ~1%. It is the only workload on the streaming-fold aggregation path
	// (fed.aggregate_ms), and its memory grows with the number of
	// distinct clients sampled (the per-client snapshots), which moves
	// rss_peak_mb, heap_retained_mb, runtime.alloc_mb_per_round,
	// runtime.gc_cycles and param.pool_hit_ratio. No attack.* metric
	// applies: max_aac reads 1 here.
	sk := paperSpec()
	sk.Dim = 8
	sk.Rounds = 30
	sk.Transport = "socket"
	sk.Compression = param.Compression{Bits: 8}
	socket := &workload{
		name: "fl-sampled-socket", users: 3000, makeData: powerLaw,
		clientFraction: 40.0 / 3000, spec: sk,
	}
	return []*workload{flCIA, glCIA, socket}
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
