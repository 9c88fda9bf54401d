package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"github.com/collablearn/ciarec/internal/attack"
	"github.com/collablearn/ciarec/internal/dataset"
	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/experiments"
	"github.com/collablearn/ciarec/internal/fed"
	"github.com/collablearn/ciarec/internal/gossip"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/param"
	"github.com/collablearn/ciarec/internal/transport"
)

// setupTimes splits an episode's set-up, the time until its first
// round starts, by the layer that spent it.
type setupTimes struct {
	total, dataset, truth, transport, attack, sim time.Duration
}

// episode is one simulation of a workload, built by newEpisode exactly
// as experiments.RunFLCIA / RunGLCIA build theirs (full sharing, no
// faults, churn or Byzantine plan), then driven one round at a time.
type episode struct {
	w    *workload
	spec experiments.Spec
	d    *dataset.Dataset
	k    int
	tr   transport.Transport
	fed  *fed.Simulation
	gsp  *gossip.Simulation
	adv  *adversary // nil without an attack
	reg  *obs.Registry

	utility []float64
	setup   setupTimes

	// Traced episodes only: the simulators' phase spans and the
	// benchmark's own spans share (to within a microsecond) one epoch.
	tracer *obs.Tracer
	probe  *probe

	// roundStart (traced only, relative to the probe epoch) and
	// roundDur time each RunRound call, callbacks included.
	roundStart, roundDur []time.Duration
}

// newEpisode generates the workload's inputs from seed and builds the
// simulation, its transport and its adversaries.
func newEpisode(w *workload, seed uint64, traced bool) (*episode, error) {
	start := time.Now()
	spec := w.spec
	spec.Seed = seed
	ep := &episode{w: w, spec: spec}
	if traced {
		// Every phase of every participant fits: no span is dropped.
		ep.tracer = obs.NewTracer(w.rounds()*(4*w.users+8) + 64)
		ep.probe = &probe{epoch: time.Now()}
		ep.reg = obs.NewRegistry()
	}

	t := time.Now()
	d, err := w.makeData(w.users, seed)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	ep.d = d
	ep.setup.dataset = time.Since(t)

	factory, err := experiments.MakeFactory("gmf", d, spec)
	if err != nil {
		return nil, err
	}
	ep.k = spec.K(d.NumUsers)
	if w.attack {
		t = time.Now()
		truths := evalx.TrueCommunities(d, ep.k)
		ep.setup.truth = time.Since(t)
		t = time.Now()
		ep.adv = newAdversary(w.gossip, spec, d, ep.k, factory, truths, ep.probe)
		ep.setup.attack = time.Since(t)
	}

	t = time.Now()
	ep.tr, err = transport.NewOptions(spec.Transport, transport.Options{Compression: spec.Compression})
	if err != nil {
		return nil, err
	}
	ep.setup.transport = time.Since(t)

	t = time.Now()
	train := model.TrainOptions{Epochs: spec.LocalEpochs}
	if w.gossip {
		cfg := gossip.Config{
			Dataset: d, Factory: factory, Policy: defense.FullSharing{},
			Variant: gossip.RandGossip, Rounds: spec.GLRounds, Train: train,
			Workers: spec.Workers, Transport: ep.tr, Compression: spec.Compression,
			Tracer: ep.tracer, Seed: spec.Seed,
			OnRound: func(r int, s *gossip.Simulation) { ep.onRound(r, s) },
		}
		if ep.adv != nil {
			cfg.Observer = ep.adv
		}
		ep.gsp, err = gossip.New(cfg)
	} else {
		cfg := fed.Config{
			Dataset: d, Factory: factory, Policy: defense.FullSharing{},
			Rounds: spec.Rounds, ClientFraction: w.clientFraction, Train: train,
			Workers: spec.Workers, Transport: ep.tr, Compression: spec.Compression,
			Tracer: ep.tracer, Seed: spec.Seed,
			OnRound: func(r int, s *fed.Simulation) { ep.onRound(r, s) },
		}
		if ep.adv != nil {
			cfg.Observer = ep.adv
		}
		ep.fed, err = fed.New(cfg)
	}
	if err != nil {
		ep.tr.Close()
		return nil, err
	}
	ep.setup.sim = time.Since(t)
	if ep.reg != nil {
		if ep.fed != nil {
			ep.fed.RegisterMetrics(ep.reg)
		} else {
			ep.gsp.RegisterMetrics(ep.reg)
		}
	}
	ep.setup.total = time.Since(start)
	return ep, nil
}

// evalDue reports whether HR@K is measured after round.
func (ep *episode) evalDue(round int) bool {
	if ep.w.evalEvery > 0 {
		return (round+1)%ep.w.evalEvery == 0
	}
	return round == ep.w.rounds()-1
}

// onRound is the simulators' OnRound callback: it measures HR@K when due.
func (ep *episode) onRound(round int, s interface{ UtilityHR(k, numNeg int) float64 }) {
	if ep.evalDue(round) {
		t := ep.probe.begin()
		ep.utility = append(ep.utility, s.UtilityHR(ep.spec.HRK, ep.spec.NumNeg))
		ep.probe.end(spanEval, round, t, 0)
	}
}

// runRound runs and times one round, callbacks included.
func (ep *episode) runRound() time.Duration {
	t0 := time.Now()
	if ep.fed != nil {
		ep.fed.RunRound()
	} else {
		ep.gsp.RunRound()
	}
	d := time.Since(t0)
	if ep.probe != nil {
		ep.roundStart = append(ep.roundStart, t0.Sub(ep.probe.epoch))
	}
	ep.roundDur = append(ep.roundDur, d)
	return d
}

// updates counts the local model updates the episode completed: every
// fed client that received the broadcast trains once, every gossip node
// trains once per round.
func (ep *episode) updates() int64 {
	if ep.fed != nil {
		return ep.tr.Stats().BroadcastMessages
	}
	return int64(ep.d.NumUsers * len(ep.roundDur))
}

// deliveries returns the uploads (fed) or pushes (gossip) attempted and
// those that never arrived. Transport give-ups surface as the failed
// Send/Deliver calls these resilience counters count.
func (ep *episode) deliveries() (attempted, failed int64) {
	st := ep.tr.Stats()
	if ep.fed != nil {
		r := ep.fed.Resilience()
		return st.BroadcastMessages + r.DeliverFailures, r.DeliverFailures + r.UploadFailures
	}
	r := ep.gsp.Resilience()
	lost := r.LostPushes + r.SkippedPeers + r.AbsentSkips
	return st.Messages + lost, lost
}

// finalParams returns the parameters the episode ends with: the global
// model, or every node's model in node order.
func (ep *episode) finalParams() []*param.Set {
	if ep.fed != nil {
		return []*param.Set{ep.fed.Global().Params()}
	}
	out := make([]*param.Set, ep.d.NumUsers)
	for u := range out {
		out[u] = ep.gsp.Node(u).Params()
	}
	return out
}

// aacSeries returns the attack's per-round AAC (nil without an attack).
func (ep *episode) aacSeries() []float64 {
	if ep.adv == nil {
		return nil
	}
	return ep.adv.rec.Series()
}

// digest hashes what the episode computed — the final parameters, the
// AAC series, the utility series and the transport byte counts — and
// reports whether every final parameter is finite.
func (ep *episode) digest() (string, bool) {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	finite := true
	for _, s := range ep.finalParams() {
		for i := 0; i < s.Len(); i++ {
			for _, v := range s.At(i).Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					finite = false
				}
				put(math.Float64bits(v))
			}
		}
	}
	for _, series := range [][]float64{ep.aacSeries(), ep.utility} {
		put(uint64(len(series)))
		for _, v := range series {
			put(math.Float64bits(v))
		}
	}
	st := ep.tr.Stats()
	for _, v := range []int64{st.Messages, st.Bytes, st.BroadcastMessages, st.BroadcastBytes, st.RawBytes, st.RawBroadcastBytes} {
		put(uint64(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), finite
}

// adversary is the CIA side of an episode, wired like the observers of
// experiments.RunFLCIA (one server instance, every user a target) and
// RunGLCIA (one single-target instance per node placement).
type adversary struct {
	server  *attack.CIA
	perNode []*attack.CIA
	truths  []map[int]struct{}
	rec     *evalx.Recorder
	n       int

	probe *probe
	// pending (traced only) holds the distinct observations since the
	// last EndRound — the senders it re-scores.
	pending map[int]struct{}
}

func newAdversary(gsp bool, spec experiments.Spec, d *dataset.Dataset, k int,
	factory model.Factory, truths []map[int]struct{}, p *probe) *adversary {
	a := &adversary{truths: truths, rec: evalx.NewRecorder(), n: d.NumUsers, probe: p}
	if p != nil {
		a.pending = make(map[int]struct{})
	}
	targets := d.Train
	ev := attack.NewRecommenderEval(factory(0), targets)
	if gsp {
		a.perNode = make([]*attack.CIA, a.n)
		for t := range a.perNode {
			a.perNode[t] = attack.New(attack.Config{
				Beta: spec.Beta, K: k, NumUsers: a.n, Eval: &targetView{ev: ev, t: t},
			})
		}
		return a
	}
	cfg := attack.Config{Beta: spec.Beta, K: k, NumUsers: a.n, Eval: ev}
	if spec.Workers == 0 || spec.Workers > 1 {
		cfg.Workers = spec.Workers
		cfg.NewEval = func() attack.Evaluator {
			return attack.NewRecommenderEval(factory(0), targets)
		}
	}
	a.server = attack.New(cfg)
	return a
}

func (a *adversary) observe(c *attack.CIA, round, from, key int, params *param.Set) {
	t := a.probe.begin()
	c.Observe(from, params)
	a.probe.end(spanObserve, round, t, 0)
	if a.pending != nil {
		a.pending[key] = struct{}{}
	}
}

// OnUpload implements fed.Observer.
func (a *adversary) OnUpload(msg fed.Message) {
	a.observe(a.server, msg.Round, msg.From, msg.From, msg.Params)
}

// OnReceive implements gossip.Observer.
func (a *adversary) OnReceive(msg gossip.Message) {
	a.observe(a.perNode[msg.To], msg.Round, msg.From, msg.To*a.n+msg.From, msg.Params)
}

// OnRoundEnd implements fed.Observer and gossip.Observer: re-score,
// then record every adversary's accuracy.
func (a *adversary) OnRoundEnd(round int) {
	scored := len(a.pending)
	clear(a.pending)
	if a.server != nil {
		t := a.probe.begin()
		a.server.EndRound()
		a.probe.end(spanScore, round, t, scored)
		t = a.probe.begin()
		accs := a.server.Accuracies(a.truths)
		a.probe.end(spanAccuracy, round, t, 0)
		a.rec.Record(accs)
		return
	}
	accs := make([]float64, len(a.perNode))
	for t, c := range a.perNode {
		n := 0
		if t == 0 {
			n = scored // the round's total, carried by its first span
		}
		t0 := a.probe.begin()
		c.EndRound()
		a.probe.end(spanScore, round, t0, n)
		t0 = a.probe.begin()
		accs[t] = evalx.Accuracy(c.Predict(0), a.truths[t])
		a.probe.end(spanAccuracy, round, t0, 0)
	}
	a.rec.Record(accs)
}

// statesBytes is the size of the momentum states the adversary holds.
func (a *adversary) statesBytes() int64 {
	var total int64
	add := func(c *attack.CIA) {
		for s := range c.Seen() {
			total += int64(8 * c.State(s).NumParams())
		}
	}
	if a.server != nil {
		add(a.server)
	}
	for _, c := range a.perNode {
		add(c)
	}
	return total
}

// targetView exposes target t of a shared multi-target evaluator, so
// per-placement CIA instances share one scratch model (as in
// experiments.RunGLCIA).
type targetView struct {
	ev *attack.RecommenderEval
	t  int
}

func (v *targetView) Load(s *param.Set)           { v.ev.Load(s) }
func (v *targetView) Score(sender, _ int) float64 { return v.ev.Score(sender, v.t) }
func (v *targetView) NumTargets() int             { return 1 }
