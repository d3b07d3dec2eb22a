package core

import (
	"math"
	"math/rand"
	"testing"

	"dbest/internal/exact"
	"dbest/internal/quadrature"
	"dbest/internal/shard"
	"dbest/internal/table"
)

// mixTable builds a bimodal table: two Gaussian clumps of x with a smooth
// nonlinear y — enough structure that mass-refined knots and per-range
// ensemble selection both matter.
func mixTable(n int, seed int64) *table.Table {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		if rng.Float64() < 0.6 {
			xs[i] = 30 + rng.NormFloat64()*5
		} else {
			xs[i] = 75 + rng.NormFloat64()*3
		}
		ys[i] = 0.05*xs[i]*xs[i] - 1.5*xs[i] + 40 + rng.NormFloat64()*3
	}
	tb := table.New("mix")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

// quadOracle answers a model's aggregates from its density and regression
// directly — the closed-form CDF plus adaptive quadrature at tolerances
// tight enough to converge on the discontinuous D·R integrands — so the
// comparison measures the grid's error, not the reference's.
type quadOracle struct {
	t *testing.T
	m *UniModel
}

var tightQuad = &quadrature.Options{AbsTol: 1e-12, RelTol: 1e-9, MaxIter: 4096, InitialPanels: 32}

// moment computes ∫ x^power·D (yIsX) or ∫ D·R^power over [lb, ub], with the
// ensemble constituent the range selects.
func (q quadOracle) moment(yIsX bool, power int, lb, ub float64) float64 {
	m := q.m
	reg := m.R.ForRange(lb, ub)
	res, err := quadrature.Integrate(func(x float64) float64 {
		f := x
		if !yIsX {
			f = reg.Predict1(x)
		}
		v := m.D.Density(x)
		for i := 0; i < power; i++ {
			v *= f
		}
		return v
	}, lb, ub, tightQuad)
	if err != nil && err != quadrature.ErrMaxIter {
		q.t.Fatal(err)
	}
	return res.Value
}

// aggregate mirrors UniModel.Aggregate for bounded spans.
func (q quadOracle) aggregate(af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (float64, error) {
	m := q.m
	lbc, ubc := m.clip(lb, ub)
	den := m.D.Mass(lbc, ubc)
	switch {
	case af == exact.Count:
		return m.N * m.D.Mass(lb, ub), nil
	case den < 1e-12 && af == exact.Sum:
		return 0, nil
	case den < 1e-12:
		return 0, ErrNoSupport
	case af == exact.Percentile:
		target := m.D.CDF(lbc) + p*den
		return quadrature.Bisect(func(x float64) float64 { return m.D.CDF(x) - target }, lbc, ubc, 1e-10, 200)
	case af == exact.Sum:
		return m.N * q.moment(false, 1, lbc, ubc), nil
	}
	ex := q.moment(yIsX, 1, lbc, ubc) / den
	if af == exact.Avg {
		return ex, nil
	}
	v := math.Max(q.moment(yIsX, 2, lbc, ubc)/den-ex*ex, 0)
	if af == exact.StdDev {
		return math.Sqrt(v), nil
	}
	return v, nil
}

// partial mirrors UniModel.Partial.
func (q quadOracle) partial(lb, ub float64, yIsX bool) shard.Partial {
	m := q.m
	var p shard.Partial
	mass := m.D.Mass(lb, ub)
	if mass < 1e-12 {
		return p
	}
	lbc, ubc := m.clip(lb, ub)
	p.Support = true
	p.Count = m.N * mass
	p.Sum = m.N * q.moment(yIsX, 1, lbc, ubc)
	p.SumSq = m.N * q.moment(yIsX, 2, lbc, ubc)
	return p
}

// gridRelErr is the equivalence bound the grid kernel must hold against
// the adaptive rule (the build-time gate is tighter, at gridErrBound).
const gridRelErrBound = 1e-4

// TestGridMatchesQuadrature compares every aggregate function over
// randomized spans between the grid kernel and the quadrature kernel on
// the same trained model.
func TestGridMatchesQuadrature(t *testing.T) {
	for _, tc := range []struct {
		name string
		tb   *table.Table
	}{
		{"linear", linTable(8000, 3)},
		{"bimodal", mixTable(8000, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := Train(tc.tb, []string{"x"}, "y", &TrainConfig{SampleSize: 1000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m := ms.Uni
			q := quadOracle{t, m}
			lo, hi := m.D.Support()
			rng := rand.New(rand.NewSource(99))
			afs := []exact.AggFunc{exact.Count, exact.Sum, exact.Avg,
				exact.Variance, exact.StdDev, exact.Percentile}
			trials := 12
			if testing.Short() {
				trials = 3 // the tight-quadrature baseline dominates runtime
			}
			for trial := 0; trial < trials; trial++ {
				width := (hi - lo) * (0.02 + 0.5*rng.Float64())
				lb := lo + rng.Float64()*(hi-lo-width)
				ub := lb + width
				if m.D.Mass(lb, ub) < 0.01 {
					continue // tiny-mass spans answer ErrNoSupport anyway
				}
				p := 0.1 + 0.8*rng.Float64()
				for _, af := range afs {
					for _, yIsX := range []bool{false, true} {
						if af == exact.Percentile && yIsX {
							continue
						}
						got, gerr := m.Aggregate(af, lb, ub, yIsX, p)
						want, werr := q.aggregate(af, lb, ub, yIsX, p)
						if (gerr == nil) != (werr == nil) {
							t.Fatalf("%v yIsX=%v [%g,%g]: grid err %v vs quad err %v",
								af, yIsX, lb, ub, gerr, werr)
						}
						if gerr != nil {
							continue
						}
						scale := math.Max(math.Abs(want), math.Abs(hi-lo))
						if af == exact.Count {
							scale = math.Max(math.Abs(want), 1)
						}
						if rel := math.Abs(got - want); rel/scale > gridRelErrBound {
							t.Errorf("%v yIsX=%v [%g,%g]: grid %g vs quad %g (rel %g)",
								af, yIsX, lb, ub, got, want, rel/scale)
						}
					}
				}
			}
		})
	}
}

// TestGridPartialMatchesQuadrature compares the shard-mergeable moment
// triples between kernels.
func TestGridPartialMatchesQuadrature(t *testing.T) {
	tb := mixTable(8000, 11)
	ms, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 1000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := ms.Uni
	q := quadOracle{t, m}
	rng := rand.New(rand.NewSource(12))
	lo, hi := m.D.Support()
	for trial := 0; trial < 10; trial++ {
		width := (hi - lo) * (0.05 + 0.4*rng.Float64())
		lb := lo + rng.Float64()*(hi-lo-width)
		ub := lb + width
		for _, yIsX := range []bool{false, true} {
			gp := m.Partial(lb, ub, yIsX, true, true)
			qp := q.partial(lb, ub, yIsX)
			if gp.Support != qp.Support {
				t.Fatalf("support mismatch: grid %v quad %v", gp.Support, qp.Support)
			}
			if !gp.Support {
				continue
			}
			for _, pair := range [][2]float64{{gp.Count, qp.Count}, {gp.Sum, qp.Sum}, {gp.SumSq, qp.SumSq}} {
				scale := math.Max(math.Abs(pair[1]), m.N)
				if math.Abs(pair[0]-pair[1])/scale > gridRelErrBound {
					t.Errorf("yIsX=%v [%g,%g]: partial grid %g vs quad %g", yIsX, lb, ub, pair[0], pair[1])
				}
			}
		}
	}
}

// TestGridCustomKnots verifies the base knot budget flows through: the
// knot vector is budget-many base knots plus the ensemble's breakpoints,
// so a larger budget yields a strictly denser grid over the same model. The
// default budget (0) builds a grid of at least DefaultGridKnots/2 knots
// that validated within the build-time bound.
func TestGridCustomKnots(t *testing.T) {
	tb := linTable(5000, 9)
	small, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1, GridKnots: 64})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1, GridKnots: 1024})
	if err != nil {
		t.Fatal(err)
	}
	gs, gl := small.Uni.Grid, large.Uni.Grid
	if !gs.Valid() || !gl.Valid() {
		t.Fatal("explicit knot budgets did not build grids")
	}
	if len(gs.Knots) >= len(gl.Knots) {
		t.Fatalf("budget 64 produced %d knots, budget 1024 produced %d — want the latter denser",
			len(gs.Knots), len(gl.Knots))
	}
	def, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if def.EvalKernel() != "grid" {
		t.Fatalf("EvalKernel = %q, want grid", def.EvalKernel())
	}
	if g := def.Uni.Grid; g.MaxRelErr > gridErrBound || len(g.Knots) < DefaultGridKnots/2 {
		t.Fatalf("default grid has %d knots and MaxRelErr %g, want at least %d knots within %g",
			len(g.Knots), g.MaxRelErr, DefaultGridKnots/2, gridErrBound)
	}
}

// TestGridCounters verifies the kernel counter moves on the grid path.
func TestGridCounters(t *testing.T) {
	tb := linTable(5000, 10)
	on, err := Train(tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := GridHits()
	on.Uni.Sum(20, 60)
	if GridHits() == before {
		t.Fatal("a grid-path SUM moved no grid hits")
	}
}

// TestGridMassMatchesClosedForm is the differential check for serving mass
// from the grid: over random spans on trained models, grid Count and
// Partial.Count must agree with the closed-form N·D.Mass oracle within 1e-8
// relative to N, the grid's build-time CDF bound, and PredictRelErr must
// equal the closed-form prediction at a mass within 1e-8 of D.Mass. (Error
// relative to the span's own mass is unbounded in near-empty density
// valleys, where both masses approach zero.)
func TestGridMassMatchesClosedForm(t *testing.T) {
	const bound = 1e-8
	for _, tc := range []struct {
		name string
		tb   *table.Table
	}{
		{"linear", linTable(8000, 3)},
		{"bimodal", mixTable(8000, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms, err := Train(tc.tb, []string{"x"}, "y", &TrainConfig{SampleSize: 2000, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			m := ms.Uni
			if !m.EB.Valid() {
				t.Fatal("training fitted no error predictor")
			}
			lo, hi := m.D.Support()
			rng := rand.New(rand.NewSource(21))
			for trial := 0; trial < 400; trial++ {
				// Spans may start or end outside the support.
				lb := lo + (hi-lo)*(1.2*rng.Float64()-0.1)
				ub := lb + (hi-lo)*rng.Float64()
				mass := m.D.Mass(lb, ub)
				for what, got := range map[string]float64{
					"Count":         m.Count(lb, ub),
					"Partial.Count": m.Partial(lb, ub, false, false, false).Count,
				} {
					if r := math.Abs(got-m.N*mass) / m.N; r > bound {
						t.Errorf("%s [%g,%g] = %.12g, closed form %.12g (rel %.3g)", what, lb, ub, got, m.N*mass, r)
					}
				}
				// RelErr falls as the selected mass grows.
				for _, af := range []exact.AggFunc{exact.Count, exact.Sum, exact.Avg, exact.Variance} {
					got := m.PredictRelErr(af, lb, ub)
					hiRe, loRe := m.EB.RelErr(af, mass-bound), m.EB.RelErr(af, mass+bound)
					if got < loRe || got > hiRe {
						t.Errorf("PredictRelErr(%v) [%g,%g] = %.12g, closed form within mass ±%g gives [%.12g, %.12g]",
							af, lb, ub, got, bound, loRe, hiRe)
					}
				}
			}
		})
	}
}
