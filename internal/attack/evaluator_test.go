package attack

import (
	"math"
	"slices"
	"testing"

	"github.com/collablearn/ciarec/internal/evalx"
	"github.com/collablearn/ciarec/internal/mathx"
	"github.com/collablearn/ciarec/internal/model"
	"github.com/collablearn/ciarec/internal/param"
)

// countingRec counts the item terms its RelevanceTerms computes.
type countingRec struct {
	model.Recommender
	terms int
}

func (c *countingRec) RelevanceTerms(owner int, items []int, dst []float64) {
	c.terms += len(items)
	c.Recommender.RelevanceTerms(owner, items, dst)
}

// memoTargets mixes overlapping, duplicate-item, empty and singleton
// targets over a 40-item catalogue.
var memoTargets = [][]int{
	{0, 1, 2, 3, 4},
	{3, 4, 5, 6},
	{7, 7, 2, 7},
	{},
	{39},
	{5, 39, 0, 11, 11, 20},
}

const memoUsers, memoItems, memoDim = 6, 40, 6

func memoFamilies() map[string]model.Factory {
	rawPRME := func(seed uint64) model.Recommender {
		m := model.NewPRME(memoUsers, memoItems, memoDim, seed)
		m.SetRawRelevance(true)
		return m
	}
	return map[string]model.Factory{
		"gmf":      model.NewGMFFactory(memoUsers, memoItems, memoDim),
		"bprmf":    model.NewBPRMFFactory(memoUsers, memoItems, memoDim),
		"neumf":    model.NewNeuMFFactory(memoUsers, memoItems, memoDim),
		"prme":     model.NewPRMEFactory(memoUsers, memoItems, memoDim),
		"prme-raw": rawPRME,
	}
}

// wantScore is the unmemoized reference: Relevance on a model freshly
// loaded with state.
func wantScore(f model.Factory, state *param.Set, sender int, target []int) float64 {
	m := f(0)
	m.Params().CopyShared(state)
	return m.Relevance(sender, target)
}

func checkScore(t *testing.T, ev Evaluator, f model.Factory, state *param.Set, sender, tgt int, target []int, what string) {
	t.Helper()
	got, want := ev.Score(sender, tgt), wantScore(f, state, sender, target)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: Score(%d, %d) = %v, Relevance = %v", what, sender, tgt, got, want)
	}
}

// TestRecommenderEvalMemoMatchesRelevance is the differential test of
// the term memo: every Score equals Relevance on a freshly loaded
// model, bit for bit, across families, target shapes, reloads of the
// same sender and sender switches without a reload.
func TestRecommenderEvalMemoMatchesRelevance(t *testing.T) {
	for name, f := range memoFamilies() {
		states := []*param.Set{f(11).Params().Clone(), f(12).Params().Clone()}
		ev := NewRecommenderEval(f(0), memoTargets)

		// Every target, twice, so the second pass is served from the memo.
		ev.Load(states[0])
		for pass := 0; pass < 2; pass++ {
			for tgt, target := range memoTargets {
				checkScore(t, ev, f, states[0], 1, tgt, target, name+" first load")
			}
		}
		// A second Load for the same sender must not serve stale terms.
		ev.Load(states[1])
		for tgt, target := range memoTargets {
			checkScore(t, ev, f, states[1], 1, tgt, target, name+" reload, same sender")
		}
		// A sender switch without a reload must not either.
		for _, sender := range []int{4, 1, 4} {
			for tgt := len(memoTargets) - 1; tgt >= 0; tgt-- {
				checkScore(t, ev, f, states[1], sender, tgt, memoTargets[tgt], name+" sender switch")
			}
		}
	}
}

// TestRecommenderEvalSingleTargetView drives one shared evaluator the
// way gossip placements do (a Load, then one target's Score, placement
// after placement) and checks both the scores and that each call
// computes exactly its target's distinct items.
func TestRecommenderEvalSingleTargetView(t *testing.T) {
	for name, f := range memoFamilies() {
		states := []*param.Set{f(21).Params().Clone(), f(22).Params().Clone()}
		rec := &countingRec{Recommender: f(0)}
		ev := NewRecommenderEval(rec, memoTargets)
		for round := 0; round < 2; round++ {
			for tgt, target := range memoTargets {
				view := &singleTarget{ev: ev, t: tgt}
				state := states[(round+tgt)%2]
				before := rec.terms
				view.Load(state)
				checkScore(t, view, f, state, 2, 0, target, name+" view")
				distinct := slices.Compact(slices.Sorted(slices.Values(target)))
				if got, want := rec.terms-before, len(distinct); got != want {
					t.Fatalf("%s target %d: computed %d terms, want %d", name, tgt, got, want)
				}
			}
		}
	}
}

// singleTarget exposes target t of a shared multi-target evaluator, as
// the gossip runners' per-placement view does.
type singleTarget struct {
	ev *RecommenderEval
	t  int
}

func (v *singleTarget) Load(s *param.Set)           { v.ev.Load(s) }
func (v *singleTarget) Score(sender, _ int) float64 { return v.ev.Score(sender, v.t) }
func (v *singleTarget) NumTargets() int             { return 1 }

// TestRecommenderEvalChargesUnionOfTargets checks the saving itself: a
// sender scored against every target computes each distinct item of
// the union once.
func TestRecommenderEvalChargesUnionOfTargets(t *testing.T) {
	rec := &countingRec{Recommender: model.NewGMF(memoUsers, memoItems, memoDim, 0)}
	ev := NewRecommenderEval(rec, memoTargets)
	state := model.NewGMF(memoUsers, memoItems, memoDim, 5).Params().Clone()
	var union []int
	for _, target := range memoTargets {
		union = append(union, target...)
	}
	slices.Sort(union)
	union = slices.Compact(union)
	for _, sender := range []int{0, 3} {
		ev.Load(state)
		before := rec.terms
		for tgt := range memoTargets {
			ev.Score(sender, tgt)
		}
		if got := rec.terms - before; got != len(union) {
			t.Fatalf("sender %d: computed %d terms, want |union| = %d", sender, got, len(union))
		}
	}
}

// TestCIAPredictMatchesSortedRanking pins Predict's top-K selection to
// the full stable sort it replaces: ties to the lower id, fewer seen
// senders than K, ±Inf and NaN scores.
func TestCIAPredictMatchesSortedRanking(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	rows := [][]float64{
		{0.5, 0.1, 0.9, 0.5, 0.5, -1, 0.9, 0, 2, 0.5},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
		{inf, -inf, 0, inf, -inf, 3, 3, inf, 0, -inf},
		{0.2, nan, 0.7, 0.2, nan, 0.9, -inf, inf, 0.7, 0.1},
		{nan, nan, nan, nan, nan, nan, nan, nan, nan, nan},
		{math.Copysign(0, -1), 0, -1e-300, 1e-300, 0, 0, -0.5, 0.5, 7, 7},
	}
	seenSets := [][]int{
		{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		{9, 2, 5},
		{3},
		{},
		{8, 6, 4, 2, 0, 1, 7},
	}
	// Wide random rows drawn from a few values, so ties are common and
	// the stable sort runs past its insertion-sort blocks.
	r := mathx.NewRand(9)
	pool := []float64{-inf, -1, 0, 0.25, 0.25, 1, inf}
	wide := make([]float64, 300)
	allSeen := make([]int, len(wide))
	for i := range wide {
		wide[i] = pool[r.IntN(len(pool))]
		allSeen[i] = len(wide) - 1 - i
	}
	checkPredictMatchesSorted(t, [][]float64{wide}, [][]int{allSeen, allSeen[:150]}, []int{1, 20, 150, 300})
	checkPredictMatchesSorted(t, rows, seenSets, []int{1, 3, 5, 10, 12})
}

func checkPredictMatchesSorted(t *testing.T, rows [][]float64, seenSets [][]int, ks []int) {
	t.Helper()
	for _, k := range ks {
		for _, seen := range seenSets {
			cia := New(Config{K: k, NumUsers: len(rows[0]), Eval: &stubEval{targets: len(rows)}})
			for _, s := range seen {
				st := param.New()
				st.AddVector("x", []float64{0})
				cia.Observe(s, st)
			}
			for tgt, row := range rows {
				copy(cia.scores[tgt], row)
				want := evalx.SortedByScoreDesc(row, cia.hasSeen)
				want = want[:min(k, len(want))]
				if got := cia.Predict(tgt); !slices.Equal(got, want) {
					t.Fatalf("k=%d seen=%v row %d: Predict = %v, sorted = %v", k, seen, tgt, got, want)
				}
			}
		}
	}
}
