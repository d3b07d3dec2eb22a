package main

import (
	"fmt"
	"slices"
	"sync"

	"dbest"
	"dbest/internal/exact"
	"dbest/internal/sketch"
	"dbest/internal/table"
	"dbest/internal/workload"
)

// Accuracy gate: a run whose check set comes back worse than this fails,
// as an answer from the wrong source would. The limits sit far outside
// what the models reach (median error ~2%, coverage above 90%), so only a
// broken estimator trips them.
const (
	maxRelErrP50  = 0.10
	minCICoverage = 0.75
)

// accuracy is the check set's comparison with the exact engine. Relative
// errors and CI coverage come only from model- and sketch-served answers:
// a WITHIN read the router sends to the exact scan is exact by
// construction, so it is checked for equality with the truth and counted
// in exactServed instead.
type accuracy struct {
	relErrs         []float64
	covered, withCI int
	exactServed     int
	answered        int
	out             clientOut // failures
}

func (a *accuracy) p(q float64) float64 {
	s := slices.Clone(a.relErrs)
	slices.Sort(s)
	return percentile(s, q)
}

func (a *accuracy) coverage() float64 { return ratio(float64(a.covered), float64(a.withCI)) }

// exactShare is the share of the check set's answers served by the exact
// scan.
func (a *accuracy) exactShare() float64 { return ratio(float64(a.exactServed), float64(a.answered)) }

// exactTolerance is how far an exact-served answer may sit from
// exact.Query's, as a relative error: only summation order differs.
const exactTolerance = 1e-9

// truth is the exact answer to one check op.
type truth struct {
	value float64
	top   []sketch.Entry // TOP reads only
	err   error
}

// checkAccuracy answers the check set on eng in one goroutine, so the
// router's calibration, and with it which reads go to the exact scan, is
// the same for a seed on every run. The exact answers over tb are
// computed in two goroutines, since they touch no engine state.
func checkAccuracy(eng *dbest.Engine, tb *table.Table, ops []op) (*accuracy, error) {
	results := make([]*dbest.Result, len(ops))
	errs := make([]error, len(ops))
	for i := range ops {
		results[i], errs[i] = eng.Query(ops[i].sql)
	}
	truths := make([]truth, len(ops))
	const workers = 2
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += workers {
				truths[i] = groundTruth(tb, &ops[i])
			}
		}(w)
	}
	wg.Wait()
	acc := &accuracy{}
	for i := range ops {
		if truths[i].err != nil {
			return nil, truths[i].err
		}
		acc.record(&ops[i], results[i], errs[i], &truths[i])
	}
	return acc, nil
}

// groundTruth computes o's answer with the exact engine.
func groundTruth(tb *table.Table, o *op) truth {
	var t truth
	switch {
	case o.sql == sketchSQLs[1]:
		t.top, t.err = exact.TopValues(tb, channelCol, 3, nil, nil)
	case o.kind == opSketch:
		t.value, t.err = exact.DistinctCount(tb, dateCol, nil, nil)
	default:
		r, err := exact.Query(tb, o.q.Request(""))
		if err != nil {
			return truth{err: err}
		}
		t.value = r.Value
	}
	return t
}

// record checks one answer and records its error against the truth.
func (a *accuracy) record(o *op, res *dbest.Result, err error, t *truth) {
	if msg := checkAnswer(o, res, err); msg != "" {
		a.out.fail(o, msg)
		return
	}
	a.answered++
	ag := res.Aggregates[0]
	if t.top != nil {
		for i, e := range t.top {
			if i >= len(ag.TopK) || ag.TopK[i].Value != e.Value {
				a.out.fail(o, fmt.Sprintf("TOP list %v, want %v", ag.TopK, t.top))
				break
			}
		}
		return
	}
	re := workload.RelErr(ag.Value, t.value)
	if res.Source == dbest.PathExact {
		a.exactServed++
		if re > exactTolerance {
			a.out.fail(o, fmt.Sprintf("exact-served %v, exact.Query %v", ag.Value, t.value))
		}
		return
	}
	a.relErrs = append(a.relErrs, re)
	if res.Source == dbest.PathModel && ag.CI[1] > ag.CI[0] {
		a.withCI++
		if t.value >= ag.CI[0] && t.value <= ag.CI[1] {
			a.covered++
		}
	}
}

// selfCheck is one assertion that the workload still stresses what it
// claims to; a failed one fails the run.
type selfCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// selfChecks judges the untraced replay's counter deltas.
func selfChecks(w *workloadDef, out *replayOut) []selfCheck {
	d0, d1 := out.ctr[0], out.ctr[1]
	hits, misses := d1.plan.Hits-d0.plan.Hits, d1.plan.Misses-d0.plan.Misses
	var checks []selfCheck
	add := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, selfCheck{name, ok, fmt.Sprintf(format, args...)})
	}
	switch {
	case w.Cold:
		fallbacks := d1.kernel.GridFallbacks - d0.kernel.GridFallbacks
		add("no plan-cache hits", hits == 0, "%d hits", hits)
		add("no grid fallbacks", fallbacks == 0, "%d fallbacks", fallbacks)
	case w.Sketches:
		served := d1.router.ModelHits - d0.router.ModelHits
		fell := d1.router.ExactFallbacks - d0.router.ExactFallbacks
		updates := d1.sketch.Updates - d0.sketch.Updates
		add("router serves from model", served > 0, "%d model hits", served)
		add("router falls back to exact", fell > 0, "%d exact fallbacks", fell)
		add("sketches absorb appends", updates > 0, "%d sketch updates", updates)
		add("table grew", d1.rows > d0.rows, "%d -> %d rows", d0.rows, d1.rows)
	default:
		r := ratio(float64(hits), float64(hits+misses))
		add("plan-cache hit ratio ~1", r >= 0.999, "hit ratio %.6f", r)
	}
	return checks
}
