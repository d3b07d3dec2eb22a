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
// exactly once — even with the plan cache disabled — with the distinct
// shapes fanning out over the engine's worker budget; duplicate instances
// then share that shape's answer, so a batch of N same-shape queries costs
// one execution, not N.
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
		p       *PreparedQuery
		ent     *cacheEntry
		err     error
		res     *Result
		elapsed time.Duration // this shape's execution (or memo-lookup) time
		memo    bool          // res is the cache's canonical copy; every instance clones
		served  bool
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
	// Execute each distinct shape once, in parallel across shapes. Shapes
	// whose result is already memoized for this generation skip execution
	// entirely.
	parallel.ForEach(len(order), e.workers, func(i int) {
		pl := order[i]
		if pl.err != nil {
			return
		}
		// Each shape stamps its own execution time: batch items must report
		// what their shape cost, not share one whole-batch elapsed (or, as
		// before this existed, report zero).
		t0 := time.Now()
		defer func() { pl.elapsed = time.Since(t0) }()
		if pl.ent != nil {
			if r := pl.ent.res.Load(); r != nil {
				pl.res, pl.memo = r, true
				return
			}
		}
		pl.res, pl.err = pl.p.runWith(snap)
		if pl.err == nil && pl.ent != nil && pl.p.memoizable() {
			pl.ent.res.CompareAndSwap(nil, pl.res)
			pl.memo = true
		}
	})
	// Fan the shared answers out to every instance of each shape. Instances
	// get deep copies so callers may mutate one result without corrupting
	// another (or the cache's memoized copy); only a non-memoized shape may
	// hand its first instance the original.
	for i := range sqls {
		pl := shapes[i]
		if pl.err != nil {
			out[i].Err = pl.err
			continue
		}
		if !pl.served && !pl.memo {
			out[i].Result = pl.res
			pl.served = true
		} else {
			out[i].Result = cloneResult(pl.res)
		}
		// Stamp after cloning: the memoized canonical copy must stay
		// untouched, and a later batch hitting it re-stamps its own time.
		out[i].Result.Elapsed = pl.elapsed
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
// parallel. The query must have exactly one range predicate. Results are
// returned in span order with per-execution error isolation.
func (p *PreparedQuery) RunBatch(spans []Span) ([]BatchResult, error) {
	if len(p.query.Where) != 1 {
		return nil, fmt.Errorf("dbest: RunBatch needs a query with exactly one range predicate, got %d", len(p.query.Where))
	}
	// Materialize the exact-path source (base table or equi-join) once for
	// the whole batch instead of once per span, against one engine snapshot.
	baseEnv := exec.Env{Workers: p.eng.workers, Tables: p.eng.snap.Load(), Shards: &p.eng.shardCtrs}
	src, err := p.plan.OpenSource(&baseEnv)
	if err != nil {
		return nil, err
	}
	baseEnv.Src = src
	out := make([]BatchResult, len(spans))
	parallel.ForEach(len(spans), p.eng.workers, func(i int) {
		span := spans[i]
		env := baseEnv
		env.Span = &span
		t0 := time.Now()
		er, err := p.plan.Run(&env)
		if err != nil {
			out[i].Err = err
			return
		}
		out[i].Result = &Result{Aggregates: er.Aggregates, Source: er.Source, Elapsed: time.Since(t0)}
	})
	return out, nil
}
