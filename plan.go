package dbest

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dbest/internal/catalog"
	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/exec"
	"dbest/internal/sketch"
	"dbest/internal/sqlparse"
)

// Path values reported by PreparedQuery.Path and Plan.Path.
const (
	PathModel   = exec.PathModel
	PathNominal = exec.PathNominal
	PathSketch  = exec.PathSketch
	PathExact   = exec.PathExact
)

// PreparedQuery is a query planned once and executable many times: the
// parsed SQL compiled into a physical operator tree (package internal/exec)
// that either evaluates trained models or falls through to the exact
// engine. It is immutable after planning and safe for concurrent Run calls.
// A PreparedQuery snapshots the catalog at plan time; models trained
// afterwards are picked up by re-preparing (Engine.Query does this
// automatically via the plan cache's generation check).
type PreparedQuery struct {
	eng   *Engine
	query *sqlparse.Query
	plan  *exec.Plan
	gen   uint64 // catalog generation at plan time

	// Error-budget routing (router.go), set when the query carries a
	// WITHIN <p>% clause and plans onto a model path: the tolerance as a
	// fraction, the eagerly-planned exact fallback, and the calibration
	// key. hasTol stays false for exact/sketch plans — there is nothing to
	// route.
	tolerance float64
	hasTol    bool
	exactPlan *exec.Plan
	routerKey string
}

// Path reports which engine path the query is bound to: "model",
// "nominal-model", "sketch" or "exact".
func (p *PreparedQuery) Path() string { return p.plan.Path }

// Reason explains an exact-path decision; empty on model paths.
func (p *PreparedQuery) Reason() string { return p.plan.Reason }

// ModelKeys lists the catalog keys of the model sets bound to each
// aggregate (empty on the exact path).
func (p *PreparedQuery) ModelKeys() []string { return p.plan.ModelKeys() }

// Render returns the plan's physical operator tree, one operator per line —
// the EXPLAIN rendering.
func (p *PreparedQuery) Render() string { return p.plan.Render() }

// Run executes the prepared query and returns its result. Each Run
// captures the engine's current snapshot, so exact-path plans observe
// tables as of the call (and the whole execution sees one consistent
// view).
func (p *PreparedQuery) Run() (*Result, error) {
	t0 := time.Now()
	res, err := p.runWith(p.env(p.eng.snap.Load()))
	if err != nil {
		return nil, err
	}
	res.Elapsed = time.Since(t0)
	return res, nil
}

// env is the execution environment of one run against snap.
func (p *PreparedQuery) env(snap *engineSnap) *exec.Env {
	return &exec.Env{Workers: p.eng.workers, Tables: snap, Shards: &p.eng.shardCtrs}
}

// runWith executes the prepared query once in env — the one execution step
// of Query, QueryBatch, PreparedQuery.Run and RunBatch, so WITHIN routing
// (with its counters and calibration feedback) and sketch sync apply to
// every read. Elapsed is left for the caller to stamp.
func (p *PreparedQuery) runWith(env *exec.Env) (*Result, error) {
	if p.hasTol {
		return p.runTolerance(env)
	}
	if p.plan.Path == PathSketch {
		// Flush pending append credits into the sketches so the estimate
		// reflects every append that completed before this query began.
		p.eng.ledger.Sync()
		p.eng.sketchHits.Add(1)
	}
	er, err := p.plan.Run(env)
	if err != nil {
		return nil, err
	}
	return &Result{Aggregates: er.Aggregates, Source: er.Source}, nil
}

// Prepare parses and plans sql, consulting the engine's plan cache: a
// repeated query shape skips both the parser and the catalog lookups. The
// returned PreparedQuery may be shared with concurrent callers.
func (e *Engine) Prepare(sql string) (*PreparedQuery, error) {
	p, _, err := e.prepareSnap(sql, e.snap.Load())
	return p, err
}

// prepareSnap resolves sql against the plan cache under the given snapshot,
// planning (and caching) on a miss. It returns the prepared query plus its
// cache entry (nil when the plan was not cached because it raced a
// generation bump).
func (e *Engine) prepareSnap(sql string, snap *engineSnap) (*PreparedQuery, *cacheEntry, error) {
	key, ent, lx := e.plans.lookup(sql, snap.cat.Generation())
	if ent != nil {
		return ent.p, ent, nil
	}
	return e.planMiss(key, lx, snap)
}

// planMiss plans a text the plan cache missed, parsing it from its one lex,
// and caches the plan under the text's normalized key.
func (e *Engine) planMiss(key string, lx sqlparse.Lexed, snap *engineSnap) (*PreparedQuery, *cacheEntry, error) {
	q, err := lx.Parse()
	if err != nil {
		return nil, nil, err
	}
	p, err := e.planSnap(q, snap)
	if err != nil {
		return nil, nil, err
	}
	return p, e.plans.put(key, p), nil
}

// serve answers p against snap through its cache entry ent (nil when the
// plan was not cached) and returns a result the caller owns. On the model
// paths, whose answers are deterministic for a fixed catalog generation, a
// memoized result is served as a copy without executing anything;
// otherwise p runs once and, if memoizable, its result becomes the entry's
// memo. The memo hit takes no mutex.
func (p *PreparedQuery) serve(ent *cacheEntry, snap *engineSnap) (*Result, error) {
	if ent != nil {
		if r := ent.res.Load(); r != nil {
			return cloneResult(r), nil
		}
	}
	res, err := p.runWith(p.env(snap))
	if err != nil {
		return nil, err
	}
	if ent != nil && p.memoizable() && ent.res.CompareAndSwap(nil, res) {
		return cloneResult(res), nil
	}
	return res, nil
}

// memoizable reports whether the plan's answer may be memoized on its cache
// entry. Only model-path results qualify: exact-path answers depend on the
// base tables, which grow via Append without a generation bump, and sketch
// answers absorb appended rows in place the same way. Model answers can
// change only when the catalog publishes a new generation — which drops the
// entry. Tolerance-routed answers are excluded too: the routing decision
// moves with the calibration rings and the live tables, not just the
// generation.
func (p *PreparedQuery) memoizable() bool {
	return p.plan.Path != PathExact && p.plan.Path != PathSketch && !p.hasTol
}

// planSnap resolves q against the snapshot's catalog, compiling every
// aggregate into a physical operator bound to a model set — or the whole
// query into an exact-path plan. Binding and generation tagging use the
// same snapshot, so a cached plan can never pin models from one generation
// under another generation's tag.
func (e *Engine) planSnap(q *sqlparse.Query, snap *engineSnap) (*PreparedQuery, error) {
	var (
		pl  *exec.Plan
		err error
	)
	switch {
	case hasSketchAggregates(q):
		pl, err = e.planSketch(q, snap.cat)
	case len(q.Equals) > 0:
		pl, err = e.planNominal(q, snap.cat)
	default:
		pl, err = e.planModel(q, snap.cat)
	}
	if err != nil {
		return nil, err
	}
	pq := &PreparedQuery{eng: e, query: q, plan: pl, gen: snap.cat.Generation()}
	if q.HasTolerance && (pl.Path == PathModel || pl.Path == PathNominal) {
		// Plan the exact fallback eagerly: routing happens per execution,
		// and the fallback must not pay a parse or catalog walk then.
		ep, err := exec.NewExactPlan(q, "WITHIN tolerance exceeded")
		if err != nil {
			return nil, err
		}
		pq.tolerance = q.Tolerance
		pq.hasTol = true
		pq.exactPlan = ep
		pq.routerKey = strings.Join(pl.ModelKeys(), "+")
	}
	return pq, nil
}

// hasSketchAggregates reports whether any select-list aggregate is a
// COUNT(DISTINCT x) or TOP k(x) — the shapes answered by registered
// sketches rather than trained density/regression models.
func hasSketchAggregates(q *sqlparse.Query) bool {
	for _, a := range q.Aggregates {
		if a.Distinct || strings.EqualFold(a.Func, "TOP") {
			return true
		}
	}
	return false
}

// planSketch binds COUNT(DISTINCT x) / TOP k(x) queries to registered
// sketches. Sketches summarize whole base tables, so any shape that narrows
// the rows — range or equality predicates, joins — falls through to the
// exact scan; GROUP BY is rejected outright. A query mixing sketch and
// model aggregates is answered exactly so all its aggregates see the same
// rows.
func (e *Engine) planSketch(q *sqlparse.Query, cat *catalog.Snapshot) (*exec.Plan, error) {
	if q.GroupBy != "" {
		return nil, fmt.Errorf("dbest: COUNT(DISTINCT) and TOP do not support GROUP BY")
	}
	if q.Join != nil {
		return exec.NewExactPlan(q, "sketches summarize base tables, not joins")
	}
	if len(q.Where) > 0 || len(q.Equals) > 0 {
		return exec.NewExactPlan(q, "predicates narrow rows a whole-table sketch cannot filter")
	}
	aggs := make([]exec.AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		name := exec.DisplayName(agg)
		switch {
		case strings.EqualFold(agg.Func, "TOP"):
			ms := cat.LookupSketch(q.Table, agg.Column, string(sketch.KindTopK))
			if ms == nil || ms.Sketch == nil {
				return exec.NewExactPlan(q, "no topk sketch for "+name+" on "+q.Table)
			}
			if _, k := ms.Sketch.Params(); agg.K > k {
				return exec.NewExactPlan(q, fmt.Sprintf("sketch for %s tracks only %d candidates", name, k))
			}
			aggs = append(aggs, exec.NewSketchEval(name, ms, false, agg.K))
		case agg.Distinct && strings.EqualFold(agg.Func, "COUNT"):
			ms := cat.LookupSketch(q.Table, agg.Column, string(sketch.KindHLL))
			if ms == nil || ms.Sketch == nil {
				return exec.NewExactPlan(q, "no hll sketch for "+name+" on "+q.Table)
			}
			aggs = append(aggs, exec.NewSketchEval(name, ms, true, 0))
		default:
			return exec.NewExactPlan(q, "mixed sketch and model aggregates are answered exactly")
		}
	}
	return exec.NewPlan(PathSketch, "", exec.NewProject(PathSketch, aggs, nil)), nil
}

// planNominal binds queries with a nominal equality predicate to per-value
// models (§2.3). Supported shape: one equality on the nominal column plus
// at most one range predicate; anything else is answered exactly.
func (e *Engine) planNominal(q *sqlparse.Query, cat *catalog.Snapshot) (*exec.Plan, error) {
	if len(q.Equals) != 1 || len(q.Where) > 1 || q.GroupBy != "" || q.Join != nil {
		return exec.NewExactPlan(q, "nominal predicates support one equality plus at most one range")
	}
	eqp := q.Equals[0]
	lb, ub := math.Inf(-1), math.Inf(1)
	xcol := ""
	if len(q.Where) == 1 {
		xcol = q.Where[0].Column
		lb, ub = q.Where[0].Lb, q.Where[0].Ub
	}
	aggs := make([]exec.AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		af, err := exact.ParseAggFunc(agg.Func)
		if err != nil {
			return nil, err
		}
		lookupX := xcol
		if lookupX == "" {
			lookupX = agg.Column
		}
		ms := cat.LookupNominal(q.Table, lookupX, yColFor(agg, lookupX), eqp.Column)
		if ms == nil {
			return exec.NewExactPlan(q, "no nominal model for "+agg.Func+"("+agg.Column+")")
		}
		aggs = append(aggs, exec.NewNominalEval(agg.Func+"("+agg.Column+")", af, ms,
			eqp.Value, lb, ub, agg.Column == ms.XCols[0] || agg.Column == "*", agg.P))
	}
	return exec.NewPlan(PathNominal, "", exec.NewProject(PathNominal, aggs, nil)), nil
}

// planModel binds range-predicate queries to trained model sets, falling to
// the exact path when any aggregate has no matching model. Every lookup
// resolves against the one catalog snapshot, so all aggregates of a query
// bind models of the same generation.
func (e *Engine) planModel(q *sqlparse.Query, cat *catalog.Snapshot) (*exec.Plan, error) {
	tbl := modelTable(q)
	xcols := make([]string, len(q.Where))
	lbs := make([]float64, len(q.Where))
	ubs := make([]float64, len(q.Where))
	for i, pr := range q.Where {
		xcols[i] = pr.Column
		lbs[i] = pr.Lb
		ubs[i] = pr.Ub
	}
	aggs := make([]exec.AggOperator, 0, len(q.Aggregates))
	for _, agg := range q.Aggregates {
		af, err := exact.ParseAggFunc(agg.Func)
		if err != nil {
			return nil, err
		}
		name := agg.Func + "(" + agg.Column + ")"
		var op exec.AggOperator
		switch {
		case len(xcols) == 0:
			// Predicate-free queries (PERCENTILE a la HIVE, or whole-table
			// aggregates): served by any model set over the aggregate column.
			if ms := lookupAny(cat, tbl, agg.Column, q.GroupBy); ms != nil {
				yIsX := len(ms.XCols) == 1 && (agg.Column == ms.XCols[0] || agg.Column == "*")
				op = exec.NewModelEval(name, af, ms,
					[]float64{math.Inf(-1)}, []float64{math.Inf(1)}, yIsX, agg.P)
				break
			}
			if q.GroupBy != "" {
				break
			}
			// Sharded fallback: a full-range merge over the whole ensemble.
			if sets := cat.LookupShardedAny(tbl, agg.Column); sets != nil {
				yIsX := agg.Column == sets[0].XCols[0] || agg.Column == "*"
				op = exec.NewShardMerge(name, af, sets, math.Inf(-1), math.Inf(1), yIsX, agg.P)
			}
		case len(xcols) == 1:
			if ms := cat.Lookup(tbl, xcols, yColFor(agg, xcols[0]), q.GroupBy); ms != nil {
				op = exec.NewModelEval(name, af, ms, lbs[:1], ubs[:1],
					agg.Column == xcols[0] || agg.Column == "*", agg.P)
				break
			}
			if q.GroupBy != "" {
				break
			}
			// Sharded fallback: bind the ensemble; execution prunes it to
			// the shards overlapping the (possibly Span-overridden) range.
			if sets := cat.LookupSharded(tbl, xcols[0], yColFor(agg, xcols[0])); sets != nil {
				op = exec.NewShardMerge(name, af, sets, lbs[0], ubs[0],
					agg.Column == xcols[0] || agg.Column == "*", agg.P)
			}
		default:
			ms := cat.Lookup(tbl, xcols, agg.Column, q.GroupBy)
			lb, ub := lbs, ubs
			if ms == nil {
				// Predicate order need not match training order: try the
				// model set's own column order.
				ms, lb, ub = lookupPermuted(cat, tbl, xcols, lbs, ubs, agg.Column, q.GroupBy)
			}
			if ms == nil {
				break
			}
			op = exec.NewModelEval(name, af, ms, lb, ub, false, agg.P)
		}
		if op == nil {
			return exec.NewExactPlan(q, "no model for "+agg.Func+"("+agg.Column+") on "+tbl)
		}
		aggs = append(aggs, op)
	}
	return exec.NewPlan(PathModel, "", exec.NewProject(PathModel, aggs, nil)), nil
}

// lookupAny finds any univariate model set on tbl whose x or y column
// matches col (used by predicate-free queries). The search is indexed by
// table, so its cost is O(models on tbl), not O(catalog).
func lookupAny(cat *catalog.Snapshot, tbl, col, groupBy string) *core.ModelSet {
	var found *core.ModelSet
	cat.ScanTable(tbl, func(ms *core.ModelSet) bool {
		// Shard members only ever serve through the ensemble merge, and
		// sketch sets carry no density model to aggregate over.
		if ms.Sketch != nil || ms.Shards > 1 || ms.GroupBy != groupBy || len(ms.XCols) != 1 {
			return true
		}
		if ms.XCols[0] == col || ms.YCol == col || col == "*" {
			found = ms
			return false
		}
		return true
	})
	return found
}

// lookupPermuted retries a multivariate lookup with predicate columns
// reordered to the training order, scanning only tbl's model sets.
func lookupPermuted(cat *catalog.Snapshot, tbl string, xcols []string, lbs, ubs []float64, ycol, groupBy string) (*core.ModelSet, []float64, []float64) {
	var (
		found    *core.ModelSet
		flb, fub []float64
	)
	cat.ScanTable(tbl, func(ms *core.ModelSet) bool {
		if ms.GroupBy != groupBy || ms.YCol != ycol {
			return true
		}
		if len(ms.XCols) != len(xcols) {
			return true
		}
		pos := make(map[string]int, len(xcols))
		for i, c := range xcols {
			pos[c] = i
		}
		lb := make([]float64, len(xcols))
		ub := make([]float64, len(xcols))
		for j, c := range ms.XCols {
			i, ok := pos[c]
			if !ok {
				return true
			}
			lb[j], ub[j] = lbs[i], ubs[i]
		}
		found, flb, fub = ms, lb, ub
		return false
	})
	return found, flb, fub
}

// Plan describes how the engine would answer a statement, without running
// it.
type Plan struct {
	// Path is "model", "nominal-model" or "exact" for queries, or the
	// statement kind ("create-model", "drop-model", "show-models") for
	// model-definition statements.
	Path string
	// ModelKeys lists the catalog keys of the model sets that would serve
	// each aggregate (empty on the exact path and for statements).
	ModelKeys []string
	// Reason explains an exact-path decision.
	Reason string
	// Tree is the physical operator tree that would execute, one operator
	// per line (Project, ModelEval, GroupMerge, ExactScan, ...); for model
	// definitions it shows the validated spec that CreateModel would run.
	Tree string
}

// Explain reports the plan for one statement. For queries: which trained
// models would answer it (and through which physical operators), or why it
// would fall through to the exact engine. For model-definition statements:
// the validated spec (or target) the statement would execute, so a CREATE
// MODEL can be checked without paying for the training.
func (e *Engine) Explain(sql string) (*Plan, error) {
	st, err := sqlparse.ParseStatement(sql)
	if err != nil {
		return nil, err
	}
	switch {
	case st.CreateModel != nil:
		spec := specFromStatement(st.CreateModel)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return &Plan{Path: "create-model", Tree: "CreateModel(" + spec.Name + ": " + spec.Summary() + ")\n"}, nil
	case st.CreateSketch != nil:
		spec := specFromSketchStatement(st.CreateSketch)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		return &Plan{Path: "create-sketch", Tree: "CreateSketch(" + spec.Name + ": " + spec.Summary() + ")\n"}, nil
	case st.DropModel != nil:
		return &Plan{Path: "drop-model", Tree: "DropModel(" + st.DropModel.Name + ")\n"}, nil
	case st.ShowModels:
		return &Plan{Path: "show-models", Tree: "ShowModels\n"}, nil
	}
	// SELECT: go through Prepare so repeated explains share the plan cache.
	p, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Path: p.Path(), Reason: p.Reason(), Tree: p.Render()}
	if keys := p.ModelKeys(); len(keys) > 0 {
		plan.ModelKeys = keys
	}
	return plan, nil
}

// PlanCacheStats reports plan-cache effectiveness counters. Hits and Misses
// are cumulative for the engine's lifetime — a generation wipe or capacity
// reset never zeroes them.
type PlanCacheStats struct {
	Hits   uint64 // Prepare calls served from the cache
	Misses uint64 // Prepare calls that planned from scratch
	// Evictions counts every cached plan dropped, whichever way it went:
	// capacity resets or generation wipes.
	Evictions uint64
	// Resets counts capacity-triggered wholesale clears in put.
	Resets uint64
	// GenerationWipes counts whole-cache invalidations caused by catalog
	// mutations (Train / LoadModels / Remove bumping the generation).
	GenerationWipes uint64
	Entries         int // plans currently cached
}

// PlanCacheStats returns a snapshot of the engine's plan-cache counters.
// Every counter is atomic, so polling it (the /stats endpoint) never
// contends with serving.
func (e *Engine) PlanCacheStats() PlanCacheStats {
	return e.plans.stats()
}

// defaultPlanCacheSize bounds the plan cache; production query workloads
// have far fewer distinct shapes than this.
const defaultPlanCacheSize = 1024

// planCacheShards is the shard fan-out of the plan cache. Shards bound the
// copy-on-write cost of a put to O(entries/shards); the lookup path is
// lock-free regardless.
const planCacheShards = 32

// cacheEntry is one cached shape: its normalized key, the prepared plan
// and, on the model paths, the memoized result of its first execution.
// Model answers are deterministic for a fixed catalog generation (the
// models are immutable and only a retrain — which bumps the generation and
// drops this entry — changes them), so a repeated hot shape is served from
// res with no execution at all. res stays nil for exact-path plans, whose answers
// track the live tables.
type cacheEntry struct {
	key string // normalized SQL; raw-text aliases map here too
	p   *PreparedQuery
	res atomic.Pointer[Result]
}

// cacheMap is one shard's immutable key→entry map; writers replace it
// wholesale (copy-on-write) under the cache's writer mutex, readers load it
// with one atomic pointer read.
type cacheMap struct {
	entries map[string]*cacheEntry
}

// planCache maps normalized SQL to prepared queries (and memoized
// model-path results). Lookups are lock-free: a generation check on an
// atomic counter, one atomic shard-map load, one map read. Raw-text aliases
// share the same shard maps: a caller's exact SQL text, seen a second time
// in a spelling other than the normalized one, maps to the same entry as
// its normalized key, so a repeated text is found without lexing. Sharing
// one key space is safe because Normalize is idempotent: a raw text equal
// to some normalized key names that same shape. Writers — planning misses,
// alias promotions and generation wipes — serialize on a single mutex and
// publish copy-on-write shard maps; the first lookup that observes a new
// catalog generation wipes every shard, which is how Train/LoadModels/
// Remove invalidate every stale plan (and release the model sets those
// plans pin) without the mutation path knowing about the cache. All
// counters are atomics, so stats() never touches the writer mutex either.
type planCache struct {
	max    int // plans kept before a capacity reset; also the alias cap
	gen    atomic.Uint64
	count  atomic.Int64 // entries across all shards
	hits   atomic.Uint64
	misses atomic.Uint64
	// evictions counts every cached plan dropped, via capacity resets or
	// generation wipes; resets and wipes count the two wholesale clears.
	evictions atomic.Uint64
	resets    atomic.Uint64
	wipes     atomic.Uint64

	mu     sync.Mutex // serializes writers (put, alias, generation advance)
	shards [planCacheShards]atomic.Pointer[cacheMap]
	// aliases counts raw-text alias keys across all shards, guarded by mu.
	// They are not plans: Entries and the capacity reset ignore them, and
	// they stop at max instead of resetting the cache.
	aliases int
}

func newPlanCache(max int) *planCache {
	pc := &planCache{max: max}
	for i := range pc.shards {
		pc.shards[i].Store(&cacheMap{entries: map[string]*cacheEntry{}})
	}
	return pc
}

// shardIndex picks the cache shard for a key (FNV-1a).
func shardIndex(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return h % planCacheShards
}

// lookup resolves one SQL text under generation gen — the one front door
// of Query, Prepare and QueryBatch. It returns the text's normalized key
// and either its cached entry (a hit) or, on a miss, the text lexed once
// and ready to parse. The caller's exact text is looked up first, before
// any lexing, so a repeated text costs one map read. Only a raw miss lexes;
// if its normalized key then hits, the raw text is aliased to that entry
// (promotion on the second sighting), so one-shot SQL never adds a key.
// Each call records exactly one hit or one miss.
//
// The hit path takes no mutex. A caller observing a newer generation than
// the cache wipes it first (the one write on the read path, taken once per
// catalog mutation); a caller with an older generation than a cached entry
// simply misses.
func (pc *planCache) lookup(sql string, gen uint64) (string, *cacheEntry, sqlparse.Lexed) {
	// Only a newer generation wipes: a reader that loaded an older
	// generation before a concurrent Train committed must not destroy the
	// plans already cached for the new one (the per-entry check in find
	// keeps it from being served a stale plan).
	if gen > pc.gen.Load() {
		pc.advance(gen)
	}
	if e := pc.find(sql, gen); e != nil {
		pc.hits.Add(1)
		return e.key, e, sqlparse.Lexed{}
	}
	lx := sqlparse.Lex(sql)
	if lx.Key != sql {
		if e := pc.find(lx.Key, gen); e != nil {
			pc.hits.Add(1)
			pc.alias(sql, e)
			return lx.Key, e, sqlparse.Lexed{}
		}
	}
	pc.misses.Add(1)
	return lx.Key, nil, lx
}

// find returns the entry cached under key (a normalized key or a raw-text
// alias) planned under exactly generation gen, or nil.
func (pc *planCache) find(key string, gen uint64) *cacheEntry {
	e := pc.shards[shardIndex(key)].Load().entries[key]
	if e == nil || e.p.gen != gen {
		return nil
	}
	return e
}

// alias adds raw as a second key for e, so the next lookup of that exact
// text skips the lexer. The alias shares e's plan, memo and generation
// check. At the alias cap aliasing stops rather than resetting the cache;
// every reset and generation wipe drops aliases along with the plans.
func (pc *planCache) alias(raw string, e *cacheEntry) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.aliases >= pc.max {
		return
	}
	// A wipe, reset or re-plan since the lookup may have dropped e; an
	// alias must never outlive the plan it names.
	if pc.shards[shardIndex(e.key)].Load().entries[e.key] != e {
		return
	}
	i := shardIndex(raw)
	cur := pc.shards[i].Load()
	if _, exists := cur.entries[raw]; exists {
		return // a concurrent lookup promoted it first
	}
	pc.shards[i].Store(&cacheMap{entries: withKey(cur.entries, raw, e)})
	pc.aliases++
}

// withKey returns a copy of m with key mapped to e.
func withKey(m map[string]*cacheEntry, key string, e *cacheEntry) map[string]*cacheEntry {
	next := make(map[string]*cacheEntry, len(m)+1)
	for k, v := range m {
		next[k] = v
	}
	next[key] = e
	return next
}

// clear drops every plan and alias from every shard. Callers hold mu.
func (pc *planCache) clear() {
	for i := range pc.shards {
		pc.shards[i].Store(&cacheMap{entries: map[string]*cacheEntry{}})
	}
	pc.aliases = 0
}

// advance wipes every shard and moves the cache to generation gen. It runs
// at most once per catalog mutation.
func (pc *planCache) advance(gen uint64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if gen <= pc.gen.Load() {
		return // another reader advanced first
	}
	if n := pc.count.Swap(0); n > 0 {
		pc.evictions.Add(uint64(n))
		pc.wipes.Add(1)
		pc.clear()
	}
	pc.gen.Store(gen)
}

// put caches a freshly planned query and returns its entry (nil when the
// plan was discarded as stale).
func (pc *planCache) put(key string, p *PreparedQuery) *cacheEntry {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if p.gen < pc.gen.Load() {
		// Planned under an older generation than the cache tracks: caching
		// it would overwrite (or pollute) the fresher working set only to
		// be evicted on first lookup.
		return nil
	}
	if int(pc.count.Load()) >= pc.max {
		// Wholesale reset: hot shapes re-plan with one parse each, and the
		// hit path stays a single map read with no LRU bookkeeping. The
		// reset is no longer silent — Resets/Evictions record the cost.
		pc.evictions.Add(uint64(pc.count.Swap(0)))
		pc.resets.Add(1)
		pc.clear()
	}
	i := shardIndex(key)
	cur := pc.shards[i].Load()
	e := &cacheEntry{key: key, p: p}
	if _, exists := cur.entries[key]; !exists {
		pc.count.Add(1)
	}
	pc.shards[i].Store(&cacheMap{entries: withKey(cur.entries, key, e)})
	return e
}

func (pc *planCache) stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:            pc.hits.Load(),
		Misses:          pc.misses.Load(),
		Evictions:       pc.evictions.Load(),
		Resets:          pc.resets.Load(),
		GenerationWipes: pc.wipes.Load(),
		Entries:         int(pc.count.Load()),
	}
}
