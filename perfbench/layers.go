package main

import (
	"sort"
	"time"

	"github.com/collablearn/ciarec/internal/obs"
	"github.com/collablearn/ciarec/internal/parx"
	"github.com/collablearn/ciarec/internal/transport"
)

// layerSamples accumulates the per-layer measurements of a run's
// traced episodes.
type layerSamples struct {
	// perRound holds one value per traced round (reported as the
	// median); evalMS one value per UtilityHR call.
	perRound map[string][]float64
	evalMS   []float64
	rounds   int

	traffic              transport.Stats
	rpcBusy              time.Duration
	poolHits, poolMisses float64
	idle, idleCap        time.Duration // parx: waiting worker time, workers × region
	covered, wall        time.Duration // round wall-clock covered by any span, and in all
	dropped              int64
	statesMB             []float64
}

func newLayerSamples() *layerSamples {
	return &layerSamples{perRound: make(map[string][]float64)}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a [lo, hi) stretch of the episode's clock.
type interval struct{ lo, hi time.Duration }

// merge sorts ivs in place and returns their union as disjoint
// intervals in order.
func merge(ivs []interval) []interval {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var out []interval
	for _, iv := range ivs {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			out[n-1].hi = max(out[n-1].hi, iv.hi)
			continue
		}
		out = append(out, iv)
	}
	return out
}

// unionLen returns the total length covered by ivs.
func unionLen(ivs []interval) time.Duration {
	var total time.Duration
	for _, iv := range merge(ivs) {
		total += iv.hi - iv.lo
	}
	return total
}

// region tracks one parallel phase of a round on the worker rings: its
// extent and when each worker finished its last item.
type region struct {
	lo, hi  time.Duration
	lastEnd []time.Duration
	seen    bool
}

func (r *region) add(ring int, lo, hi time.Duration) {
	if !r.seen || lo < r.lo {
		r.lo = lo
	}
	if !r.seen || hi > r.hi {
		r.hi = hi
	}
	r.seen = true
	if hi > r.lastEnd[ring] {
		r.lastEnd[ring] = hi
	}
}

// idle returns the worker time spent waiting for the slowest worker to
// finish, and the phase's worker capacity (workers × extent).
func (r *region) idle() (idle, capacity time.Duration) {
	if !r.seen {
		return 0, 0
	}
	for _, end := range r.lastEnd {
		if end < r.lo {
			end = r.lo
		}
		idle += r.hi - end
	}
	return idle, time.Duration(len(r.lastEnd)) * (r.hi - r.lo)
}

// collect adds a traced episode's spans, counters and attack state to
// the samples.
func (ls *layerSamples) collect(ep *episode) {
	rounds := len(ep.roundDur)
	workers := parx.Workers(ep.spec.Workers)
	if !ep.w.gossip && workers > ep.d.NumUsers {
		workers = ep.d.NumUsers
	}
	type roundAcc struct {
		phase     [obs.PhaseEval + 1]time.Duration
		trainN    int
		aggregate []interval
		par       [2]region // fed: broadcast/train/send; gossip: encode/send, aggregate/train
		bench     [numSpanKinds]time.Duration
		observeN  int
		scored    int
	}
	acc := make([]roundAcc, rounds)
	for r := range acc {
		for p := range acc[r].par {
			acc[r].par[p].lastEnd = make([]time.Duration, workers)
		}
	}
	var all []interval
	spans := ep.tracer.Spans()
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Dur
		all = append(all, interval{lo, hi})
		if s.Round < 0 || s.Round >= rounds || s.Phase == obs.PhaseEval {
			// Eval spans are stamped with the next round; the
			// benchmark's own UtilityHR spans time that call.
			continue
		}
		a := &acc[s.Round]
		a.phase[s.Phase] += s.Dur
		if s.Phase == obs.PhaseTrain {
			a.trainN++
		}
		if s.Phase == obs.PhaseAggregate {
			a.aggregate = append(a.aggregate, interval{lo, hi})
		}
		if s.Ring >= workers {
			continue
		}
		p := 0
		if ep.w.gossip && (s.Phase == obs.PhaseAggregate || s.Phase == obs.PhaseTrain) {
			p = 1
		}
		a.par[p].add(s.Ring, lo, hi)
	}
	for _, b := range ep.probe.spans {
		all = append(all, interval{b.start, b.start + b.dur})
		if b.kind == spanEval {
			ls.evalMS = append(ls.evalMS, ms(b.dur))
		}
		if b.round < 0 || b.round >= rounds {
			continue
		}
		a := &acc[b.round]
		a.bench[b.kind] += b.dur
		if b.kind == spanObserve {
			a.observeN++
		}
		a.scored += b.n
	}

	// Round wall-clock no span covers: intersect each round with the
	// union of every span.
	merged := merge(all)
	for r := 0; r < rounds; r++ {
		lo, hi := ep.roundStart[r], ep.roundStart[r]+ep.roundDur[r]
		ls.wall += hi - lo
		i := sort.Search(len(merged), func(i int) bool { return merged[i].hi > lo })
		for ; i < len(merged) && merged[i].lo < hi; i++ {
			ls.covered += min(hi, merged[i].hi) - max(lo, merged[i].lo)
		}
	}

	add := func(name string, v float64) { ls.perRound[name] = append(ls.perRound[name], v) }
	st := ep.tr.Stats()
	for r := range acc {
		a := &acc[r]
		callbacks := a.bench[spanObserve] + a.bench[spanScore] + a.bench[spanAccuracy] + a.bench[spanEval]
		if ep.adv != nil {
			add("attack.score_ms", ms(a.bench[spanScore]))
			add("attack.senders_scored", float64(a.scored))
			add("attack.accuracy_ms", ms(a.bench[spanAccuracy]))
			add("attack.observe_ms", ms(a.bench[spanObserve]))
			add("attack.observe_calls", float64(a.observeN))
		}
		add("model.train_busy_ms", ms(a.phase[obs.PhaseTrain]))
		add("model.updates", float64(a.trainN))
		if ep.w.gossip {
			add("gossip.round_ms", ms(ep.roundDur[r]-callbacks))
			add("gossip.encode_busy_ms", ms(a.phase[obs.PhaseEncode]))
			add("gossip.aggregate_busy_ms", ms(a.phase[obs.PhaseAggregate]))
			add("gossip.send_busy_ms", ms(a.phase[obs.PhaseSend]))
		} else {
			// Uploads are observed inside the aggregation spans (the
			// staged phase, or the streaming fold).
			add("fed.round_ms", ms(ep.roundDur[r]-callbacks))
			add("fed.aggregate_ms", ms(max(0, unionLen(a.aggregate)-a.bench[spanObserve])))
			add("fed.encode_ms", ms(a.phase[obs.PhaseEncode]))
			add("fed.broadcast_busy_ms", ms(a.phase[obs.PhaseBroadcast]))
			add("fed.send_busy_ms", ms(a.phase[obs.PhaseSend]))
		}
		for p := range a.par {
			idle, capacity := a.par[p].idle()
			ls.idle += idle
			ls.idleCap += capacity
		}
		if st.RoundTrips > 0 {
			// Every transport call is one RPC: the broadcast upload
			// (inside fed's encode span), each download and each send.
			ls.rpcBusy += a.phase[obs.PhaseSend] + a.phase[obs.PhaseBroadcast]
			if !ep.w.gossip {
				ls.rpcBusy += a.phase[obs.PhaseEncode]
			}
		}
	}
	ls.rounds += rounds

	ls.traffic.Messages += st.Messages + st.BroadcastMessages
	ls.traffic.Bytes += st.Bytes + st.BroadcastBytes
	ls.traffic.RawBytes += st.RawBytes + st.RawBroadcastBytes
	ls.traffic.RoundTrips += st.RoundTrips
	ls.traffic.Retries += st.Retries
	ls.traffic.GaveUp += st.GaveUp
	snap := ep.reg.Snapshot()
	ls.poolHits += snap.Value("param_pool_hits_total")
	ls.poolMisses += snap.Value("param_pool_misses_total")
	ls.dropped += ep.tracer.Dropped()
	if ep.adv != nil {
		ls.statesMB = append(ls.statesMB, float64(ep.adv.statesBytes())/mib)
	}
}

// metrics reports the samples under their per-layer metric names.
// Layers a workload does not use read 0.
func (ls *layerSamples) metrics(out map[string]float64) {
	for _, name := range []string{
		"attack.score_ms", "attack.senders_scored", "attack.accuracy_ms",
		"attack.observe_ms", "attack.observe_calls",
		"model.train_busy_ms", "model.updates",
		"fed.round_ms", "fed.aggregate_ms", "fed.encode_ms", "fed.broadcast_busy_ms", "fed.send_busy_ms",
		"gossip.round_ms", "gossip.encode_busy_ms", "gossip.aggregate_busy_ms", "gossip.send_busy_ms",
	} {
		out[name] = median(ls.perRound[name])
	}
	out["attack.states_mb"] = median(ls.statesMB)
	out["model.eval_ms"] = median(ls.evalMS)
	out["model.eval_calls"] = perRound(float64(len(ls.evalMS)), ls.rounds)
	t := ls.traffic
	out["transport.wire_mb_per_round"] = perRound(float64(t.Bytes)/mib, ls.rounds)
	out["transport.raw_mb_per_round"] = perRound(float64(t.RawBytes)/mib, ls.rounds)
	out["transport.compress_ratio"] = ratio(float64(t.RawBytes), float64(t.Bytes))
	out["transport.messages_per_round"] = perRound(float64(t.Messages), ls.rounds)
	out["transport.round_trips_per_round"] = perRound(float64(t.RoundTrips), ls.rounds)
	out["transport.rpc_us"] = ratio(float64(ls.rpcBusy)/float64(time.Microsecond), float64(t.RoundTrips))
	out["transport.retries"] = float64(t.Retries)
	out["transport.gave_up"] = float64(t.GaveUp)
	out["param.pool_hit_ratio"] = ratio(ls.poolHits, ls.poolHits+ls.poolMisses)
	out["parx.idle_frac"] = ratio(float64(ls.idle), float64(ls.idleCap))
	out["obs.spans_dropped"] = float64(ls.dropped)
	out["obs.untraced_frac"] = ratio(float64(ls.wall-ls.covered), float64(ls.wall))
}

func perRound(total float64, rounds int) float64 { return ratio(total, float64(rounds)) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
