package fed

import (
	"math"
	"testing"

	"github.com/collablearn/ciarec/internal/defense"
	"github.com/collablearn/ciarec/internal/param"
)

// unitRoundoff is u = 2⁻⁵³, the float64 unit roundoff.
const unitRoundoff = 0x1p-53

// recordingObserver keeps a private copy of every upload of the
// current round, with its sender.
type recordingObserver struct {
	from []int
	sets []*param.Set
}

func (o *recordingObserver) OnUpload(msg Message) {
	o.from = append(o.from, msg.From)
	o.sets = append(o.sets, msg.Params.Clone())
}

func (o *recordingObserver) OnRoundEnd(int) {}

func (o *recordingObserver) reset() { o.from, o.sets = o.from[:0], o.sets[:0] }

// naiveFedAvg is the §III-B server step written out directly, one
// coordinate at a time, with no pools, shards or kernels:
//
//	g' = g + Σ_u (w_u/T) · f_u · (p_u − g),  T = Σ_u w_u,
//
// where w_u = |train_u|, p_u is client u's upload (an entry absent from
// it contributes nothing), and f_u = min(1, clip/‖p_u − g‖₂) under
// norm-clip (clip > 0; the norm runs over the shared entries only) and
// 1 otherwise. Private user-table rows are not averaged: row u comes
// from client u's upload when it carries the entry.
//
// It also returns, per coordinate, the scale the rounding error of any
// evaluation order is proportional to: |g| + Σ_u (w_u/T)·f_u·|p_u − g|.
func naiveFedAvg(g *param.Set, from []int, ups []*param.Set, weights []float64, private map[string]struct{}, clip float64) (out, scale *param.Set) {
	out, scale = g.Clone(), g.Clone()
	var total float64
	for _, u := range from {
		total += weights[u]
	}
	factor := make([]float64, len(ups))
	for i, p := range ups {
		factor[i] = 1
		if clip <= 0 {
			continue
		}
		var sq float64
		for _, name := range g.Names() {
			if _, ok := private[name]; ok || !p.Has(name) {
				continue
			}
			gd, pd := g.Get(name), p.Get(name)
			for j := range gd {
				sq += (pd[j] - gd[j]) * (pd[j] - gd[j])
			}
		}
		if norm := math.Sqrt(sq); norm > clip {
			factor[i] = clip / norm
		}
	}
	for _, name := range g.Names() {
		ge, oe, se := g.Entry(name), out.Entry(name), scale.Entry(name)
		if _, ok := private[name]; ok {
			for i, p := range ups {
				if !p.Has(name) {
					continue
				}
				u := from[i]
				copy(oe.Data[u*oe.Cols:(u+1)*oe.Cols], p.Entry(name).Data[u*oe.Cols:(u+1)*oe.Cols])
			}
			for j := range se.Data {
				se.Data[j] = 0 // routed rows are copied, not computed
			}
			continue
		}
		for j := range ge.Data {
			var sum, mag float64
			for i, p := range ups {
				if !p.Has(name) {
					continue
				}
				c := weights[from[i]] / total * factor[i]
				d := p.Get(name)[j] - ge.Data[j]
				sum += c * d
				mag += c * math.Abs(d)
			}
			oe.Data[j] = ge.Data[j] + sum
			se.Data[j] = math.Abs(ge.Data[j]) + mag
		}
	}
	return out, scale
}

// TestFedAvgMatchesNaiveReference drives real rounds and checks every
// round's aggregate against naiveFedAvg applied to the uploads the
// server observed and the global model the round started from.
//
// Tolerance. Both sides evaluate the same real number through a
// different sequence of float64 operations, so each is within a
// first-order bound of it, and the two differ by at most the sum:
//
//   - a clip factor: the sum of m squared differences carries ≤ (m+1)u
//     relative error, the square root halves it and adds u, the
//     division adds u — ≤ (m/2 + 3)u, with m the shared-coordinate
//     count (m = 0, f = 1 exactly, without clipping);
//   - one term c·(p − g): the difference, the weight normalization (a
//     division per weight, or one reciprocal and a product at the end)
//     and the products with f and with the difference — ≤ 7 more u;
//   - accumulating n terms and adding g: ≤ (n + 1)u relative to
//     |g| + Σ|terms|.
//
// One side is thus within (n + m/2 + 10)u · scale_j of the exact
// value, and the two sides within twice that. Private rows are copies:
// tolerance 0.
func TestFedAvgMatchesNaiveReference(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(*Config)
	}{
		{"fedavg", func(*Config) {}},
		{"fedavg-shareless", func(c *Config) { c.Policy = defense.ShareLess{Tau: 0.1} }},
		{"norm-clip", func(c *Config) { c.Aggregator, c.ClipNorm = AggNormClip, 0.05 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := fedTestDataset(t)
			cfg := fedConfig(d)
			cfg.ClientFraction = 0.5
			cfg.Workers = 3
			tc.cfg(&cfg)
			rec := &recordingObserver{}
			cfg.Observer = rec
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			weights := make([]float64, d.NumUsers)
			for u := range weights {
				weights[u] = float64(len(d.Train[u]))
			}
			var clip float64
			var m int
			if cfg.Aggregator == AggNormClip {
				clip = cfg.ClipNorm
				for _, name := range s.Global().Params().Names() {
					if _, ok := s.privateSet[name]; !ok {
						m += len(s.Global().Params().Get(name))
					}
				}
			}
			for s.Round() < cfg.Rounds {
				before := s.Global().Params().Clone()
				rec.reset()
				s.RunRound()
				if len(rec.sets) == 0 {
					t.Fatalf("round %d: no uploads observed", s.Round()-1)
				}
				want, scale := naiveFedAvg(before, rec.from, rec.sets, weights, s.privateSet, clip)
				gamma := 2 * float64(len(rec.sets)+m/2+10) * unitRoundoff
				got := s.Global().Params()
				for _, name := range got.Names() {
					gd, wd, sd := got.Get(name), want.Get(name), scale.Get(name)
					for j := range gd {
						if diff := math.Abs(gd[j] - wd[j]); diff > gamma*sd[j] {
							t.Fatalf("round %d %s[%d]: engine %v, reference %v (|Δ| %g > tolerance %g)",
								s.Round()-1, name, j, gd[j], wd[j], diff, gamma*sd[j])
						}
					}
				}
			}
			if cfg.Aggregator == AggNormClip && s.Resilience().ClippedUploads == 0 {
				t.Fatal("no upload was clipped; the norm-clip case exercises nothing")
			}
		})
	}
}

// TestFedAvgSingleClientReturnsUpload: with one sampled client per
// round, FedAvg's g + (w/w)(p − g) is the client's upload. Shared
// entries may differ from p by the rounding of the difference, the
// weight scaling (w and its reciprocal, or w/w), and the final add:
// ≤ 5u(|p| + |g|) to first order, so 6u covers the second-order terms.
// The owner's private row is copied (exact); every other user's row
// keeps the global value (exact).
func TestFedAvgSingleClientReturnsUpload(t *testing.T) {
	d := fedTestDataset(t)
	cfg := fedConfig(d)
	cfg.ClientFraction = 1 / float64(d.NumUsers)
	rec := &recordingObserver{}
	cfg.Observer = rec
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s.Round() < cfg.Rounds {
		before := s.Global().Params().Clone()
		rec.reset()
		s.RunRound()
		if len(rec.sets) != 1 {
			t.Fatalf("round %d: %d uploads observed, want 1", s.Round()-1, len(rec.sets))
		}
		u, p := rec.from[0], rec.sets[0]
		got := s.Global().Params()
		for _, name := range got.Names() {
			ge, pe, be := got.Entry(name), p.Entry(name), before.Entry(name)
			if _, private := s.privateSet[name]; private {
				for r := 0; r < ge.Rows; r++ {
					src := be
					if r == u {
						src = pe
					}
					for k := 0; k < ge.Cols; k++ {
						if ge.Data[r*ge.Cols+k] != src.Data[r*ge.Cols+k] {
							t.Fatalf("round %d %s row %d: got %v, want %v (owner %d)",
								s.Round()-1, name, r, ge.Data[r*ge.Cols+k], src.Data[r*ge.Cols+k], u)
						}
					}
				}
				continue
			}
			for j := range ge.Data {
				tol := 6 * unitRoundoff * (math.Abs(pe.Data[j]) + math.Abs(be.Data[j]))
				if diff := math.Abs(ge.Data[j] - pe.Data[j]); diff > tol {
					t.Fatalf("round %d %s[%d]: got %v, upload %v (|Δ| %g > %g)",
						s.Round()-1, name, j, ge.Data[j], pe.Data[j], diff, tol)
				}
			}
		}
	}
}
