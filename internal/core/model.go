// Package core implements the paper's primary contribution: the DBEst
// model pair — a kernel density estimator D(x) and a regression model R(x)
// trained over a small uniform sample — and the evaluation of aggregate
// functions from those models alone (paper §2.3, Eqs. 1–10). No base data
// or samples are consulted at query time; samples are discarded after
// training (§3, Sampling).
package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"math"

	"dbest/internal/boost"
	"dbest/internal/exact"
	"dbest/internal/kde"
	"dbest/internal/shard"
)

func init() {
	// The ensemble regressor holds its constituents behind the
	// boost.Regressor interface; gob needs the concrete types registered
	// for model serialization (catalog persistence and model bundles).
	gob.Register(&boost.GradientBoost{})
	gob.Register(&boost.XGBoost{})
	gob.Register(&boost.PiecewiseLinear{})
	gob.Register(&boost.Ensemble{})
}

// ErrNoSupport is returned when a range predicate selects a region where
// the density estimator has (almost) no mass, so regression-based
// aggregates are undefined — the analogue of an empty selection.
var ErrNoSupport = errors.New("core: predicate range has no density support")

// UniModel is the model pair for one column pair (x, y): the trained
// density estimator over x and regression model x → y, plus the logical
// table cardinality N the sample represented. This is the only state DBEst
// keeps per column pair (Table 1 of the paper: D(x), R(x), N).
type UniModel struct {
	XCol, YCol string
	N          float64 // logical number of rows modeled (scales Eq. 1 and 7)
	D          *kde.Binned
	R          *boost.Ensemble
	XLo, XHi   float64 // observed x-domain of the training sample

	// Grid is the train-time prefix-integral table set that answers every
	// range integral in O(log knots). Training fails when it cannot build
	// a valid grid, and catalog loading rejects models without one.
	Grid *EvalGrid

	// EB is the train-time error predictor: bootstrap-fitted per-family
	// relative-error coefficients plus the regression residual floor. nil
	// on models from old catalogs or samples too small to bootstrap; such
	// models answer without bounds (PredictRelErr reports 0 = unknown).
	EB *ErrBounds
}

// PredictRelErr predicts the relative error of aggregate af evaluated over
// [lb, ub] on this model, from the train-time error predictor at the
// range's selected mass fraction. 0 means unknown — the model carries no
// fitted bounds (old catalogs, tiny samples).
func (m *UniModel) PredictRelErr(af exact.AggFunc, lb, ub float64) float64 {
	if !m.EB.Valid() {
		return 0
	}
	return m.EB.RelErr(af, m.mass(lb, ub))
}

// mass returns ∫_lb^ub D from the grid's cumulative-density table, so the
// numerators and denominators of one answer come from the same kernel.
func (m *UniModel) mass(lb, ub float64) float64 { return m.Grid.Mass(lb, ub) }

// clip narrows [lb, ub] to the estimator's support, where the grid's knots
// span.
func (m *UniModel) clip(lb, ub float64) (float64, float64) {
	slo, shi := m.D.Support()
	if lb < slo {
		lb = slo
	}
	if ub > shi {
		ub = shi
	}
	return lb, ub
}

// Count evaluates Eq. 1: COUNT ≈ N · ∫ D(x) dx.
func (m *UniModel) Count(lb, ub float64) float64 {
	return m.N * m.mass(lb, ub)
}

// Avg evaluates Eq. 6: AVG(y) ≈ ∫ D·R dx / ∫ D dx.
func (m *UniModel) Avg(lb, ub float64) (float64, error) {
	lb, ub = m.clip(lb, ub)
	den := m.mass(lb, ub)
	if den < 1e-12 {
		return 0, ErrNoSupport
	}
	return m.integrateDR(lb, ub, 1) / den, nil
}

// Sum evaluates Eq. 7: SUM(y) ≈ N · ∫ D·R dx.
func (m *UniModel) Sum(lb, ub float64) float64 {
	lb, ub = m.clip(lb, ub)
	if m.mass(lb, ub) < 1e-12 {
		return 0 // no rows selected: SUM is 0, like SQL over empty sets
	}
	return m.N * m.integrateDR(lb, ub, 1)
}

// VarianceY evaluates Eq. 8, the regression-based VARIANCE(y):
// E[R²] − E[R]² under the density restricted to [lb, ub].
func (m *UniModel) VarianceY(lb, ub float64) (float64, error) {
	lb, ub = m.clip(lb, ub)
	den := m.mass(lb, ub)
	if den < 1e-12 {
		return 0, ErrNoSupport
	}
	ex := m.integrateDR(lb, ub, 1) / den
	v := m.integrateDR(lb, ub, 2)/den - ex*ex
	if v < 0 {
		v = 0
	}
	return v, nil
}

// StdDevY evaluates Eq. 9.
func (m *UniModel) StdDevY(lb, ub float64) (float64, error) {
	v, err := m.VarianceY(lb, ub)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// momentX computes ∫_lb^ub x^power·D dx — the density-moment integrand
// shared by the x-forms of AVG, VARIANCE and STDDEV and by Partial's yIsX
// moments — with two interpolated grid lookups.
func (m *UniModel) momentX(power int, lb, ub float64) float64 {
	gridHits.Add(1)
	return m.Grid.MomentX(power, lb, ub)
}

// VarianceX evaluates Eq. 2, the density-based VARIANCE(x) over the
// restriction of D to [lb, ub]: E[x²] − E[x]².
func (m *UniModel) VarianceX(lb, ub float64) (float64, error) {
	lb, ub = m.clip(lb, ub)
	den := m.mass(lb, ub)
	if den < 1e-12 {
		return 0, ErrNoSupport
	}
	ex := m.momentX(1, lb, ub) / den
	v := m.momentX(2, lb, ub)/den - ex*ex
	if v < 0 {
		v = 0
	}
	return v, nil
}

// StdDevX evaluates Eq. 3.
func (m *UniModel) StdDevX(lb, ub float64) (float64, error) {
	v, err := m.VarianceX(lb, ub)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(v), nil
}

// Percentile solves F(x) = p (Eq. 4) by inverting the grid's cumulative-
// density table. When a range predicate accompanies the percentile, the
// quantile is taken conditionally within [lb, ub].
func (m *UniModel) Percentile(p, lb, ub float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("core: percentile point %v outside [0, 1]", p)
	}
	g := m.Grid
	if lb == math.Inf(-1) && ub == math.Inf(1) {
		gridHits.Add(1)
		return g.InvertCDF(p), nil
	}
	lbc, ubc := m.clip(lb, ub)
	den := g.Mass(lbc, ubc)
	if den < 1e-12 {
		return 0, ErrNoSupport
	}
	gridHits.Add(1)
	x := g.InvertCDF(g.CDF(lbc) + p*den)
	return math.Min(math.Max(x, lbc), ubc), nil
}

// integrateDR computes ∫ D(x)·R(x)^power dx over [lb, ub] from the grid's
// tables for the ensemble constituent selected for this range, so one
// constituent answers the whole integral consistently.
func (m *UniModel) integrateDR(lb, ub float64, power int) float64 {
	gridHits.Add(1)
	return m.Grid.MomentDR(m.R.IndexForRange(lb, ub), power, lb, ub)
}

// Partial computes this model's shard-mergeable partial aggregates over
// [lb, ub]: the estimated selected-row count and, when requested, the
// first two moments of the aggregated column over the selection. The
// triples merge exactly across shards (internal/shard): COUNT and SUM add,
// AVG is the count-weighted mean, VARIANCE/STDDEV recombine through
// E[y²] − E[y]². yIsX selects the density-based moments (Eqs. 2/3), where
// the aggregated column is the predicate column itself. A range with no
// density support returns a zero Partial with Support false, not an error:
// one empty shard must not fail a merge its siblings can answer.
func (m *UniModel) Partial(lb, ub float64, yIsX, needSum, needSq bool) shard.Partial {
	var p shard.Partial
	mass := m.mass(lb, ub)
	if mass < 1e-12 {
		return p
	}
	p.Support = true
	p.Count = m.N * mass
	lbc, ubc := m.clip(lb, ub)
	moment := func(power int) float64 {
		if yIsX {
			return m.momentX(power, lbc, ubc)
		}
		return m.integrateDR(lbc, ubc, power)
	}
	if needSum {
		p.Sum = m.N * moment(1)
	}
	if needSq {
		p.SumSq = m.N * moment(2)
	}
	return p
}

// Aggregate dispatches an aggregate-function evaluation on this model.
// yIsX selects the density-based forms of VARIANCE/STDDEV (Eq. 2/3), used
// when the aggregated column is the predicate column itself.
func (m *UniModel) Aggregate(af exact.AggFunc, lb, ub float64, yIsX bool, p float64) (float64, error) {
	switch af {
	case exact.Count:
		return m.Count(lb, ub), nil
	case exact.Sum:
		return m.Sum(lb, ub), nil
	case exact.Avg:
		if yIsX {
			// AVG over the predicate column: E[x] under D restricted.
			lbc, ubc := m.clip(lb, ub)
			den := m.mass(lbc, ubc)
			if den < 1e-12 {
				return 0, ErrNoSupport
			}
			return m.momentX(1, lbc, ubc) / den, nil
		}
		return m.Avg(lb, ub)
	case exact.Variance:
		if yIsX {
			return m.VarianceX(lb, ub)
		}
		return m.VarianceY(lb, ub)
	case exact.StdDev:
		if yIsX {
			return m.StdDevX(lb, ub)
		}
		return m.StdDevY(lb, ub)
	case exact.Percentile:
		return m.Percentile(p, lb, ub)
	default:
		return 0, fmt.Errorf("core: unsupported aggregate %v", af)
	}
}

// SizeBytes reports the gob-serialized size of the model — the paper's
// space-overhead metric (models of "a few 100s KBs" vs samples of MBs).
func (m *UniModel) SizeBytes() int {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return 0
	}
	return buf.Len()
}
