package attack

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// RecommenderEval is the Evaluator used against recommendation models.
// It installs observed parameter payloads into a scratch model and
// computes the relevance score Ŷ(Θ_u, V_target).
//
// Two modes:
//
//   - full-model mode (the default): the sender's own user-embedding
//     row inside the observed model is used, matching §IV-B;
//   - fictive-user mode (Share-less adaptation, §IV-C): observed
//     payloads carry no user embeddings, so relevance is computed with
//     the adversary's fictive user embedding e_A fitted per target on
//     a fabricated interaction matrix R_A.
//
// Full-model mode memoizes per-item relevance terms for the loaded
// state and the sender they were computed for: a sender scored against
// many targets pays one term per distinct catalogue item, not one per
// (target, item). Load and a change of sender invalidate the memo.
type RecommenderEval struct {
	scratch model.Recommender
	targets [][]int
	// fictive[t] is e_A for target t; nil selects full-model mode.
	fictive [][]float64

	// The term memo: terms[i] holds item i's term for owner and the
	// loaded state iff stamp[i] == gen. Bumping gen invalidates every
	// entry at once; gen 0 is never current, so zeroed stamps are stale.
	terms []float64
	stamp []uint32
	gen   uint32
	owner int
	// miss and fresh stage the items a Score call must compute and
	// their terms; sum stages the target's terms in target order.
	miss       []int
	fresh, sum []float64
}

var _ Evaluator = (*RecommenderEval)(nil)

// NewRecommenderEval builds a full-model evaluator. scratch must be a
// dedicated model instance (its parameters are overwritten on Load).
func NewRecommenderEval(scratch model.Recommender, targets [][]int) *RecommenderEval {
	if len(targets) == 0 {
		panic("attack: NewRecommenderEval requires at least one target")
	}
	n := scratch.NumItems()
	return &RecommenderEval{
		scratch: scratch, targets: targets,
		terms: make([]float64, n), stamp: make([]uint32, n), owner: -1,
	}
}

// NewShareLessEval builds a fictive-user evaluator for the Share-less
// setting. Call RefreshFictive before the first Score (and whenever
// the adversary wants to re-fit e_A against fresher item embeddings).
func NewShareLessEval(scratch model.Recommender, targets [][]int) *RecommenderEval {
	ev := NewRecommenderEval(scratch, targets)
	ev.fictive = make([][]float64, len(targets))
	return ev
}

// ShareLess reports whether the evaluator is in fictive-user mode.
func (e *RecommenderEval) ShareLess() bool { return e.fictive != nil }

// NumTargets implements Evaluator.
func (e *RecommenderEval) NumTargets() int { return len(e.targets) }

// Target returns the item set of target t.
func (e *RecommenderEval) Target(t int) []int { return e.targets[t] }

// Load implements Evaluator: installs the payload into the scratch
// model and invalidates the term memo. Score results may be reused
// until the next Load, so whoever mutates the scratch model must call
// Load again before scoring. Partial payloads (Share-less) overwrite
// only the entries they carry; the remaining scratch entries keep their
// previous values, which is irrelevant for scoring because fictive-user
// mode never reads them.
func (e *RecommenderEval) Load(state *param.Set) {
	if e.scratch.Params().CopyShared(state) == 0 {
		panic("attack: payload shares no entries with the scratch model")
	}
	e.invalidate()
}

// invalidate drops every memoized term.
func (e *RecommenderEval) invalidate() {
	e.gen++
	if e.gen == 0 { // wrapped: stamps of the old cycle look current
		clear(e.stamp)
		e.gen = 1
	}
}

// Score implements Evaluator. In full-model mode it computes, in one
// batched call, the terms of target t's items not yet memoized for
// sender, then averages the memoized terms in target order — the same
// values and the same reduction as Relevance(sender, targets[t]).
func (e *RecommenderEval) Score(sender, t int) float64 {
	target := e.targets[t]
	if e.fictive != nil {
		vec := e.fictive[t]
		if vec == nil {
			panic(fmt.Sprintf("attack: fictive user for target %d not fitted; call RefreshFictive", t))
		}
		return e.scratch.RelevanceWithUserVec(vec, target)
	}
	if sender != e.owner {
		e.invalidate()
		e.owner = sender
	}
	miss := e.miss[:0]
	for _, it := range target {
		if e.stamp[it] != e.gen {
			e.stamp[it] = e.gen
			miss = append(miss, it)
		}
	}
	e.miss = miss
	if len(miss) > 0 {
		e.fresh = slices.Grow(e.fresh[:0], len(miss))[:len(miss)]
		e.scratch.RelevanceTerms(sender, miss, e.fresh)
		for i, it := range miss {
			e.terms[it] = e.fresh[i]
		}
	}
	e.sum = slices.Grow(e.sum[:0], len(target))[:len(target)]
	for i, it := range target {
		e.sum[i] = e.terms[it]
	}
	return mathx.Mean(e.sum)
}

// RefreshFictive fits the fictive user embedding e_A for every target
// against the item embeddings in state (§IV-C): the adversary builds a
// fabricated interaction matrix R_A containing exactly the target
// items and trains a user embedding on it, holding everything else
// fixed. epochs controls the fit length (the paper's adversary is
// cheap; a handful of epochs suffices).
func (e *RecommenderEval) RefreshFictive(state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictive on a full-model evaluator")
	}
	e.Load(state)
	for t, target := range e.targets {
		e.fictive[t] = e.scratch.FitFictiveUser(target, model.TrainOptions{
			Epochs: epochs,
			Rand:   r,
		})
	}
}

// RefreshFictiveOne re-fits the fictive user for a single target
// against the item embeddings in state. Gossip adversaries use this:
// each adversary placement refreshes only its own target against its
// own node's parameters.
func (e *RecommenderEval) RefreshFictiveOne(t int, state *param.Set, epochs int, r *rand.Rand) {
	if e.fictive == nil {
		panic("attack: RefreshFictiveOne on a full-model evaluator")
	}
	e.Load(state)
	e.fictive[t] = e.scratch.FitFictiveUser(e.targets[t], model.TrainOptions{
		Epochs: epochs,
		Rand:   r,
	})
}

// SetFictive installs the same explicit user vector as every target's
// fictive embedding (ablation baselines use a zero vector here). The
// slice is copied.
func (e *RecommenderEval) SetFictive(vec []float64) {
	if e.fictive == nil {
		panic("attack: SetFictive on a full-model evaluator")
	}
	for t := range e.fictive {
		e.fictive[t] = append([]float64(nil), vec...)
	}
}

// CloneFictive copies fitted fictive vectors from src (used to share
// one fit across parallel evaluators).
func (e *RecommenderEval) CloneFictive(src *RecommenderEval) {
	if e.fictive == nil || src.fictive == nil {
		panic("attack: CloneFictive requires share-less evaluators")
	}
	for t, v := range src.fictive {
		e.fictive[t] = append([]float64(nil), v...)
	}
}
