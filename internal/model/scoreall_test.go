package model

import (
	"math"
	"math/rand/v2"
	"testing"

	"github.com/collablearn/ciarec/internal/mathx"
)

// scoreShapes property-tests the batched scoring paths over catalogue
// sizes straddling the kernel block size and embedding widths around
// the 4-way unroll boundary.
var scoreShapes = []struct{ users, items, dim int }{
	{3, 1, 2}, {5, 7, 4}, {4, 40, 6}, {6, 255, 8}, {4, 300, 10}, {3, 600, 16},
}

// TestScoreItemsMatchesScalar pins the tentpole bit-identity contract
// for every model family: the full-catalogue ScoreAll, the gathered
// ScoreItems and singleton ScoreItems calls must agree with tolerance
// zero, item for item, across random shapes, owners and sequential
// contexts.
func TestScoreItemsMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewPCG(11, 12))
	for _, sh := range scoreShapes {
		dim := sh.dim
		factories := map[string]Factory{
			"gmf":   NewGMFFactory(sh.users, sh.items, dim),
			"prme":  NewPRMEFactory(sh.users, sh.items, dim),
			"bprmf": NewBPRMFFactory(sh.users, sh.items, dim),
			"neumf": NewNeuMFFactory(sh.users, sh.items, dim),
		}
		for name, f := range factories {
			m := f(r.Uint64())
			owner := r.IntN(sh.users)
			for _, prev := range []int{-1, r.IntN(sh.items)} {
				all := make([]float64, sh.items)
				m.ScoreAll(owner, prev, all)

				items := make([]int, sh.items)
				for i := range items {
					items[i] = r.IntN(sh.items)
				}
				gathered := make([]float64, len(items))
				m.ScoreItems(owner, prev, items, gathered)
				one := make([]float64, 1)
				for i, it := range items {
					if gathered[i] != all[it] {
						t.Fatalf("%s %v prev=%d: gathered[%d]=%v != ScoreAll[%d]=%v",
							name, sh, prev, i, gathered[i], it, all[it])
					}
					m.ScoreItems(owner, prev, items[i:i+1], one)
					if one[0] != all[it] {
						t.Fatalf("%s %v prev=%d: singleton score %v != ScoreAll[%d]=%v",
							name, sh, prev, one[0], it, all[it])
					}
				}
			}
		}
	}
}

// TestScoreAllMatchesReference checks the batched scores against
// independent reimplementations of each family's scoring formula built
// from the scalar mathx kernels, tolerance zero.
func TestScoreAllMatchesReference(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 14))
	const users, items, dim = 4, 300, 8

	t.Run("gmf", func(t *testing.T) {
		m := NewGMF(users, items, dim, r.Uint64())
		dst := make([]float64, items)
		m.ScoreAll(1, -1, dst)
		w := make([]float64, dim)
		mathx.Hadamard(m.h, m.userEmb.Row(1), w)
		for it := 0; it < items; it++ {
			if want := mathx.Dot(m.itemEmb.Row(it), w) + m.bias[0]; dst[it] != want {
				t.Fatalf("item %d: %v != %v", it, dst[it], want)
			}
		}
	})

	t.Run("bprmf", func(t *testing.T) {
		m := NewBPRMF(users, items, dim, r.Uint64())
		dst := make([]float64, items)
		m.ScoreAll(2, -1, dst)
		for it := 0; it < items; it++ {
			// The historical scalar path: Dot + item bias.
			if want := m.score(m.userEmb.Row(2), it); dst[it] != want {
				t.Fatalf("item %d: %v != %v", it, dst[it], want)
			}
		}
	})

	t.Run("prme", func(t *testing.T) {
		m := NewPRME(users, items, dim, r.Uint64())
		dst := make([]float64, items)
		for _, prev := range []int{-1, 17} {
			m.ScoreAll(3, prev, dst)
			for it := 0; it < items; it++ {
				// The historical scalar path: the two-space score.
				if want := m.score(m.userEmb.Row(3), prev, it); dst[it] != want {
					t.Fatalf("prev=%d item %d: %v != %v", prev, it, dst[it], want)
				}
			}
		}
	})
}

// TestPredictItemsMatchesPredict checks the batched confidences against
// per-item Predict. PRME and BPRMF share the exact scalar computation
// (tolerance 0); GMF and NeuMF batch the logit through the Dot-order
// kernels, so their sigmoids may differ from the sequential scalar
// logit by float rounding only.
func TestPredictItemsMatchesPredict(t *testing.T) {
	r := rand.New(rand.NewPCG(15, 16))
	const users, items, dim = 4, 120, 8
	cases := []struct {
		name string
		f    Factory
		tol  float64
	}{
		{"gmf", NewGMFFactory(users, items, dim), 1e-12},
		{"prme", NewPRMEFactory(users, items, dim), 0},
		{"bprmf", NewBPRMFFactory(users, items, dim), 0},
		{"neumf", NewNeuMFFactory(users, items, dim), 1e-12},
	}
	for _, c := range cases {
		m := c.f(r.Uint64())
		ids := make([]int, items)
		for i := range ids {
			ids[i] = i
		}
		got := make([]float64, items)
		m.PredictItems(1, ids, got)
		for it := 0; it < items; it++ {
			want := m.Predict(1, it)
			if d := math.Abs(got[it] - want); d > c.tol {
				t.Fatalf("%s item %d: batched %v vs scalar %v (|Δ|=%g > %g)",
					c.name, it, got[it], want, d, c.tol)
			}
		}
	}
}

// TestRelevanceMatchesBatched cross-checks the batched relevance sweeps
// against per-item Predict/score means (the historical definition).
func TestRelevanceMatchesBatched(t *testing.T) {
	r := rand.New(rand.NewPCG(17, 18))
	const users, items, dim = 5, 90, 8
	target := []int{3, 11, 42, 89, 11}
	for name, f := range map[string]Factory{
		"gmf":   NewGMFFactory(users, items, dim),
		"bprmf": NewBPRMFFactory(users, items, dim),
		"neumf": NewNeuMFFactory(users, items, dim),
	} {
		m := f(r.Uint64())
		var want float64
		for _, it := range target {
			want += m.Predict(2, it)
		}
		want /= float64(len(target))
		got := m.Relevance(2, target)
		// BPRMF relevance is over raw scores, not sigmoids.
		if name == "bprmf" {
			buf := make([]float64, len(target))
			m.ScoreItems(2, -1, target, buf)
			want = mathx.Sum(buf) / float64(len(target))
		}
		if d := math.Abs(got - want); d > 1e-12 {
			t.Fatalf("%s relevance %v != %v (|Δ|=%g)", name, got, want, d)
		}
	}
}

// TestRelevanceTermsBatchIndependent pins the contract the CIA term
// memo rests on, for every family and both PRME metrics: a term does
// not depend on the rest of its batch, and Relevance and
// RelevanceWithUserVec are bit-identical to mathx.Mean over the terms.
func TestRelevanceTermsBatchIndependent(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 20))
	for _, sh := range scoreShapes {
		rawPRME := func(seed uint64) Recommender {
			m := NewPRME(sh.users, sh.items, sh.dim, seed)
			m.SetRawRelevance(true)
			return m
		}
		for name, f := range map[string]Factory{
			"gmf":      NewGMFFactory(sh.users, sh.items, sh.dim),
			"bprmf":    NewBPRMFFactory(sh.users, sh.items, sh.dim),
			"neumf":    NewNeuMFFactory(sh.users, sh.items, sh.dim),
			"prme":     NewPRMEFactory(sh.users, sh.items, sh.dim),
			"prme-raw": rawPRME,
		} {
			m := f(r.Uint64())
			owner := r.IntN(sh.users)
			items := make([]int, 1+r.IntN(2*sh.items))
			for i := range items {
				items[i] = r.IntN(sh.items)
			}
			terms := make([]float64, len(items))
			m.RelevanceTerms(owner, items, terms)
			one := make([]float64, 1)
			for i, it := range items {
				m.RelevanceTerms(owner, []int{it}, one)
				if math.Float64bits(one[0]) != math.Float64bits(terms[i]) {
					t.Fatalf("%s %v: singleton term %v != batched term[%d] %v", name, sh, one[0], i, terms[i])
				}
			}
			want := mathx.Mean(terms)
			if got := m.Relevance(owner, items); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: Relevance %v != mean of terms %v", name, sh, got, want)
			}
			vec := m.Params().Get(m.PrivateEntries()[0])
			if name == "neumf" {
				continue // its user vector spans two tables
			}
			row := vec[owner*sh.dim : (owner+1)*sh.dim]
			if got := m.RelevanceWithUserVec(row, items); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: RelevanceWithUserVec %v != mean of terms %v", name, sh, got, want)
			}
		}
	}
}

// TestPRMERelevanceTermsMatchScalar pins the PRME term kernel to its
// scalar definitions bit for bit: 2·Dot(u, L_i) − Dot(L_i, L_i) by
// default and −‖u − L_i‖² in raw mode.
func TestPRMERelevanceTermsMatchScalar(t *testing.T) {
	m := NewPRME(4, 50, 10, 3)
	items := []int{0, 7, 7, 49, 13}
	terms := make([]float64, len(items))
	for _, raw := range []bool{false, true} {
		m.SetRawRelevance(raw)
		m.RelevanceTerms(2, items, terms)
		for i, it := range items {
			u, l := m.userEmb.Row(2), m.itemPref.Row(it)
			want := 2*mathx.Dot(u, l) - mathx.Dot(l, l)
			if raw {
				want = m.prefScore(u, it)
			}
			if math.Float64bits(terms[i]) != math.Float64bits(want) {
				t.Fatalf("raw=%v item %d: term %v != scalar %v", raw, it, terms[i], want)
			}
		}
	}
}
