package dbest

import (
	"fmt"
	"time"

	"dbest/internal/core"
	"dbest/internal/exec"
	"dbest/internal/parallel"
	"dbest/internal/sketch"
)

// BatchResult is one query's outcome in a batched execution. Errors are
// isolated per query: a malformed or unanswerable query fails alone without
// aborting the rest of the batch.
type BatchResult struct {
	// SQL is the input statement as submitted (empty for RunBatch, where
	// the inputs are parameter spans, not SQL strings).
	SQL    string
	Result *Result // nil when Err != nil
	Err    error
}

// Span re-exports the executor's range-parameter binding used by
// PreparedQuery.RunBatch: replacement [Lb, Ub] bounds for the query's
// range predicate.
type Span = exec.Span

// QueryBatch answers many SQL queries in one call. Each distinct SQL text
// is looked up in the plan cache once, the same way Query looks it up, and
// each distinct normalized query shape is parsed, planned and executed
// exactly once, with the distinct shapes fanning out over the engine's
// worker budget; duplicate instances then share that shape's answer, so a
// batch of N same-shape queries costs one execution, not N.
// The whole batch binds one engine snapshot: every shape sees the same
// catalog generation and the same table versions, so a batch is a
// consistent point-in-time read even while trains and appends land
// concurrently. Results are returned in input order with per-query error
// isolation: a malformed or unanswerable shape fails its own instances and
// nothing else.
func (e *Engine) QueryBatch(sqls []string) []BatchResult {
	out := make([]BatchResult, len(sqls))
	snap := e.snap.Load()
	type planned struct {
		p      *PreparedQuery
		ent    *cacheEntry
		err    error
		res    *Result
		served bool // res went to the shape's first instance
	}
	shapes := make([]*planned, len(sqls))          // each input's shape
	byText := make(map[string]*planned, len(sqls)) // distinct texts
	byKey := make(map[string]*planned, len(sqls))  // distinct shapes
	order := make([]*planned, 0, len(sqls))        // distinct shapes, first-seen order
	gen := snap.cat.Generation()
	for i, sql := range sqls {
		out[i].SQL = sql
		pl, ok := byText[sql]
		if !ok {
			key, ent, lx := e.plans.lookup(sql, gen)
			if pl, ok = byKey[key]; !ok {
				pl = &planned{}
				if ent != nil {
					pl.p, pl.ent = ent.p, ent
				} else {
					pl.p, pl.ent, pl.err = e.planMiss(key, lx, snap)
				}
				byKey[key] = pl
				order = append(order, pl)
			}
			byText[sql] = pl
		}
		shapes[i] = pl
	}
	// Execute each distinct shape once, in parallel across shapes, through
	// the same memo step as Query: shapes whose result is already memoized
	// for this generation skip execution entirely.
	parallel.ForEach(len(order), e.workers, func(i int) {
		pl := order[i]
		if pl.err != nil {
			return
		}
		// Each shape stamps its own execution time: batch items report what
		// their shape cost, not one whole-batch elapsed.
		t0 := time.Now()
		if pl.res, pl.err = pl.p.serve(pl.ent, snap); pl.err == nil {
			pl.res.Elapsed = time.Since(t0)
		}
	})
	// Fan the shared answers out to every instance of each shape. serve
	// hands back a result the batch owns, so the first instance takes it and
	// the rest get deep copies: callers may mutate one result without
	// corrupting another.
	for i := range sqls {
		pl := shapes[i]
		switch {
		case pl.err != nil:
			out[i].Err = pl.err
		case !pl.served:
			out[i].Result = pl.res
			pl.served = true
		default:
			out[i].Result = cloneResult(pl.res)
		}
	}
	return out
}

// cloneResult deep-copies a Result so batch duplicates do not alias the
// original's aggregate, group and top-k slices. Nil slices stay nil, so a
// plain model answer costs two allocations: the Result and its aggregates.
func cloneResult(r *Result) *Result {
	out := *r
	out.Aggregates = append([]AggregateResult(nil), r.Aggregates...)
	for i := range out.Aggregates {
		a := &out.Aggregates[i]
		if a.Groups != nil {
			a.Groups = append([]core.GroupAnswer(nil), a.Groups...)
		}
		if a.TopK != nil {
			a.TopK = append([]sketch.Entry(nil), a.TopK...)
		}
	}
	return &out
}

// RunBatch executes the prepared query once per span, substituting each
// span for the query's single range predicate — the parameter-varied form
// of batched execution: parse and plan once, run for many ranges in
// parallel. The query must have exactly one range predicate. Each span runs
// through the same execution step as Query, so a WITHIN budget is routed
// per span. Results are returned in span order with per-execution error
// isolation.
func (p *PreparedQuery) RunBatch(spans []Span) ([]BatchResult, error) {
	if len(p.query.Where) != 1 {
		return nil, fmt.Errorf("dbest: RunBatch needs a query with exactly one range predicate, got %d", len(p.query.Where))
	}
	// Materialize the exact-path source (base table or equi-join) once for
	// the whole batch instead of once per span, against one engine snapshot.
	// A WITHIN query opens its exact fallback's source, since any span may
	// route there.
	base := p.env(p.eng.snap.Load())
	srcPlan := p.plan
	if p.hasTol {
		srcPlan = p.exactPlan
	}
	src, err := srcPlan.OpenSource(base)
	if err != nil {
		return nil, err
	}
	base.Src = src
	out := make([]BatchResult, len(spans))
	parallel.ForEach(len(spans), p.eng.workers, func(i int) {
		env := *base
		env.Span = &spans[i]
		t0 := time.Now()
		res, err := p.runWith(&env)
		if err != nil {
			out[i].Err = err
			return
		}
		res.Elapsed = time.Since(t0)
		out[i].Result = res
	})
	return out, nil
}
