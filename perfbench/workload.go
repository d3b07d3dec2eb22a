package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/table"
	"dbest/internal/workload"
)

const (
	tableName  = "store_sales"
	dateCol    = "ss_sold_date_sk"
	qtyCol     = "ss_quantity"
	priceCol   = "ss_sales_price"
	channelCol = "ss_channel"

	// dataSeed fixes the fact table and the training samples: --seed varies
	// the workloads (shapes, spans, op order, appended rows, check set),
	// never the database or the models under test.
	dataSeed = 1
)

var fiveAFs = []exact.AggFunc{exact.Count, exact.Sum, exact.Avg, exact.Variance, exact.StdDev}

// sketchSQLs are the two sketch reads of mixed-ingest.
var sketchSQLs = []string{
	"SELECT COUNT(DISTINCT " + dateCol + ") FROM " + tableName,
	"SELECT TOP 3(" + channelCol + ") FROM " + tableName,
}

var createSketches = []string{
	"CREATE SKETCH bench_dates ON " + tableName + "(" + dateCol + ") TYPE HLL",
	"CREATE SKETCH bench_channels ON " + tableName + "(" + channelCol + ") TYPE TOPK K 3",
}

// The fixed shape of every run: closed-loop clients, hot shapes (12 per
// AF), shards of the sharded model and rows per Append batch.
const (
	clients     = 2
	hotShapes   = 60
	shards      = 4
	appendBatch = 16
)

// sizes are the scale knobs of one run. Full runs use defaultSizes; the
// tests shrink them.
type sizes struct {
	Rows        int `json:"rows"`
	UniSample   int `json:"uni_sample"`
	ShardSample int `json:"shard_sample_per_shard"`
	CheckSize   int `json:"check_size"`
	SetupReps   int `json:"setup_reps"`
	Rounds      int `json:"rounds"`
	FreshWarmup int `json:"fresh_warmup_reads"`
	// TracedOpsCap bounds the ops per client that record spans in the
	// traced replay; the rest of the sequence runs untraced, so spans of
	// the sub-microsecond hot path fit in memory.
	TracedOpsCap int `json:"traced_ops_cap"`
}

var defaultSizes = sizes{
	Rows: 200_000, UniSample: 10_000, ShardSample: 2_500, CheckSize: 2_000,
	SetupReps: 5, Rounds: 10, FreshWarmup: 200, TracedOpsCap: 20_000,
}

// mix is the op mix of one workload, as probabilities per op; what is left
// after appends, WITHIN reads and sketch reads goes to the hot shapes (or,
// for cold-spans, to fresh spans).
type mix struct {
	Append float64 `json:"append"`
	Within float64 `json:"within"`
	Sketch float64 `json:"sketch"`
}

// workloadDef is one named workload: what the engine is set up with and
// how its op sequence is drawn.
type workloadDef struct {
	Name string `json:"name"`
	// OpsPerClientSecond sizes the fixed op sequence: each client replays
	// seconds × OpsPerClientSecond ops, so two commits always do the same
	// work and mixed-ingest's table grows by the same rows. The rates were
	// set so a run's timed phase lasts about --seconds on a 2-core x86 box.
	OpsPerClientSecond int  `json:"ops_per_client_second"`
	Sharded            bool `json:"sharded_model"`
	Sketches           bool `json:"sketches"`
	Cold               bool `json:"fresh_spans"`
	Mix                mix  `json:"mix"`
	// WithinPct is the error budget of WITHIN reads; WithinWidths the span
	// widths they draw from, as fractions of the date domain, chosen so the
	// router serves some from the model and sends some to the exact scan.
	WithinPct    float64   `json:"within_pct,omitempty"`
	WithinWidths []float64 `json:"within_widths,omitempty"`
}

var workloads = []*workloadDef{
	{
		// Why: 60 shapes fit the 1024-entry plan cache, so every timed
		// query is a plan-cache hit plus a memoized result. Stresses the
		// SQL front end, the cache lookup, result cloning and allocation;
		// the model kernel stays idle.
		Name: "hot-zipf", OpsPerClientSecond: 180_000,
	},
	{
		// Why: every query has fresh span literals, so the working set is
		// unbounded and each query pays parse, plan, a cache put, model or
		// shard-merge evaluation, the grid kernel and bound stamping. The
		// memo and cache-hit path are bypassed.
		Name: "cold-spans", OpsPerClientSecond: 11_000, Sharded: true, Cold: true,
	},
	{
		// Why: the only workload with writes. Appends grow the table
		// deterministically and feed the sketches; WITHIN reads on fresh
		// spans exercise the router and the exact scan, and their cache
		// puts reset the plan cache under the hot shapes. Growth stays near
		// 10% of the table per 10 s so the untrained rows do not turn the
		// router's calibration during the run; 8% WITHIN reads keep the
		// exact scans (the narrowest third of them) well above 1% of
		// queries, so p99 lands inside the scan latencies.
		Name: "mixed-ingest", OpsPerClientSecond: 9_500, Sketches: true,
		Mix:       mix{Append: 0.005, Within: 0.08, Sketch: 0.08},
		WithinPct: 5, WithinWidths: []float64{0.002, 0.05, 0.2},
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// setupTimes are the wall times of one engine set-up, split by step.
type setupTimes struct {
	Total, Uni, Sharded, Sketch time.Duration
}

// setupEngine builds one engine for w: RegisterTable plus every model and
// sketch the workload serves from. Only these calls are timed.
func setupEngine(w *workloadDef, sz *sizes, tb *table.Table) (*dbest.Engine, setupTimes, error) {
	var st setupTimes
	ctx := context.Background()
	t0 := time.Now()
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		return nil, st, err
	}
	t := time.Now()
	if _, err := eng.CreateModel(ctx, &dbest.ModelSpec{
		Table: tableName, XCols: []string{dateCol}, YCol: priceCol,
		SampleSize: sz.UniSample, Seed: dataSeed,
	}); err != nil {
		return nil, st, fmt.Errorf("univariate model: %w", err)
	}
	st.Uni = time.Since(t)
	if w.Sharded {
		t = time.Now()
		if _, err := eng.CreateModel(ctx, &dbest.ModelSpec{
			Table: tableName, XCols: []string{qtyCol}, YCol: priceCol,
			SampleSize: sz.ShardSample, Seed: dataSeed, Shards: shards,
		}); err != nil {
			return nil, st, fmt.Errorf("sharded model: %w", err)
		}
		st.Sharded = time.Since(t)
	}
	if w.Sketches {
		t = time.Now()
		for _, stmt := range createSketches {
			if _, err := eng.Exec(stmt); err != nil {
				return nil, st, fmt.Errorf("%s: %w", stmt, err)
			}
		}
		st.Sketch = time.Since(t)
	}
	st.Total = time.Since(t0)
	return eng, st, nil
}

type opKind uint8

const (
	opHot    opKind = iota // a repeated model shape
	opFresh                // a model query with fresh span literals
	opSketch               // a sketch read
	opWithin               // a WITHIN-budget read on a fresh span
	opAppend               // an Engine.Append batch
)

// op is one operation of a client's sequence.
type op struct {
	kind  opKind
	sql   string
	shard bool           // opFresh: served by the sharded model
	q     workload.Query // the exact request, set on rendered reads
	rows  [][]interface{}
}

// genEnv is what every generator of one run shares: the table domains,
// the hot shapes and the pool of real rows appends draw from.
type genEnv struct {
	w              *workloadDef
	sz             *sizes
	dateLo, dateHi float64
	qtyLo, qtyHi   float64
	hotSQL         []string
	fresh, hotTpl  []template
	appendPool     [][]interface{}
}

func newGenEnv(w *workloadDef, sz *sizes, tb *table.Table, seed int64) (*genEnv, error) {
	env := &genEnv{w: w, sz: sz}
	env.fresh, env.hotTpl = templates(w)
	var err error
	if env.dateLo, env.dateHi, err = domain(tb, dateCol); err != nil {
		return nil, err
	}
	if env.qtyLo, env.qtyHi, err = domain(tb, qtyCol); err != nil {
		return nil, err
	}
	hot, err := workload.Generate(tb, workload.Spec{
		XCol: dateCol, YCol: priceCol, AFs: fiveAFs,
		RangeFrac: 0.05, PerAF: hotShapes / len(fiveAFs), Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	for _, q := range hot {
		env.hotSQL = append(env.hotSQL, q.SQL(tableName))
	}
	if w.Mix.Append > 0 {
		env.appendPool = sampleRows(tb, 16*appendBatch, seed)
	}
	return env, nil
}

// generator draws one client's op sequence. The same stream seed always
// yields the same sequence.
type generator struct {
	env  *genEnv
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGenerator(env *genEnv, stream int64) *generator {
	rng := rand.New(rand.NewSource(stream))
	return &generator{env: env, rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(env.hotSQL)-1))}
}

// streamSeed derives the seed of one op stream (a client, the warm-up or
// the check set) from the run seed.
func streamSeed(seed int64, stream int) int64 {
	return seed*1_000_003 + int64(stream)*7_919 + 17
}

const (
	streamCheck  = 100
	streamWarmup = 101
)

func (g *generator) next() op {
	w := g.env.w
	if w.Cold {
		return g.fresh()
	}
	u := g.rng.Float64()
	switch {
	case u < w.Mix.Append:
		k := g.rng.Intn(len(g.env.appendPool) / appendBatch)
		return op{kind: opAppend, rows: g.env.appendPool[k*appendBatch : (k+1)*appendBatch]}
	case u < w.Mix.Append+w.Mix.Within:
		return g.fresh()
	case u < w.Mix.Append+w.Mix.Within+w.Mix.Sketch:
		return op{kind: opSketch, sql: sketchSQLs[g.rng.Intn(len(sketchSQLs))]}
	}
	return op{kind: opHot, sql: g.env.hotSQL[g.zipf.Uint64()]}
}

// fresh draws a read with fresh span literals from one of the workload's
// fresh templates.
func (g *generator) fresh() op {
	t := g.env.fresh[g.rng.Intn(len(g.env.fresh))]
	return g.env.render(t, g.rng.Float64())
}

// template is one query shape with free span literals: an AF over a
// predicate column, a span width as a fraction of the column's domain, and
// the kind of op it renders to (opWithin adds the WITHIN budget).
type template struct {
	kind opKind
	af   exact.AggFunc
	xcol string
	frac float64
}

// templates builds the fresh templates of a workload (the five AFs on both
// models for cold-spans, the five AFs at each WITHIN width for
// mixed-ingest) and the hot shapes' template (the five AFs over 5% date
// spans).
func templates(w *workloadDef) (fresh, hot []template) {
	for _, af := range fiveAFs {
		hot = append(hot, template{opHot, af, dateCol, 0.05})
		switch {
		case w.Cold:
			fresh = append(fresh, template{opFresh, af, dateCol, 0.05}, template{opFresh, af, qtyCol, 0.05})
		case w.Mix.Within > 0:
			for _, frac := range w.WithinWidths {
				fresh = append(fresh, template{opWithin, af, dateCol, frac})
			}
		}
	}
	return fresh, hot
}

// render places t's span at position u in [0, 1] of the free range.
// VARIANCE and STDDEV aggregate the predicate column itself, as in
// workload.Generate.
func (env *genEnv) render(t template, u float64) op {
	lo, hi := env.dateLo, env.dateHi
	if t.xcol == qtyCol {
		lo, hi = env.qtyLo, env.qtyHi
	}
	width := (hi - lo) * t.frac
	lb := lo + u*(hi-lo-width)
	y := priceCol
	if t.af == exact.Variance || t.af == exact.StdDev {
		y = t.xcol
	}
	q := workload.Query{AF: t.af, XCol: t.xcol, YCol: y, Lb: lb, Ub: lb + width, P: 0.5}
	o := op{kind: t.kind, sql: q.SQL(tableName), shard: t.xcol == qtyCol, q: q}
	if t.kind == opWithin {
		o.sql = fmt.Sprintf("%s WITHIN %g%%", o.sql, env.w.WithinPct)
	}
	return o
}

// checkOps draws the check set from the workload's own templates: every
// template the same number of times, with span positions stratified over
// the domain (the k-th of K draws lands in [k/K, (k+1)/K)), so the error
// percentiles of two seeds differ only within strata. Sketch reads are
// included once each. There are no appends: the check set is answered
// against the table as registered.
func checkOps(env *genEnv, seed int64) []op {
	rng := rand.New(rand.NewSource(streamSeed(seed, streamCheck)))
	tpls := env.hotTpl
	var out []op
	if env.w.Cold || env.w.Mix.Within > 0 {
		tpls = env.fresh
	}
	if env.w.Mix.Within > 0 {
		tpls = append(slices.Clone(tpls), env.hotTpl...)
	}
	if env.w.Sketches {
		for _, s := range sketchSQLs {
			out = append(out, op{kind: opSketch, sql: s})
		}
	}
	k := max(1, env.sz.CheckSize/len(tpls))
	for i := 0; i < k; i++ {
		for _, t := range tpls {
			out = append(out, env.render(t, (float64(i)+rng.Float64())/float64(k)))
		}
	}
	return out
}

// warmupOps are run untimed before a replay: every repeated SQL once, so
// the timed phase starts with a filled cache, and a few fresh reads, which
// touch the model grids and, on mixed-ingest, fill the router's
// calibration rings.
func warmupOps(env *genEnv, seed int64) []op {
	var out []op
	if !env.w.Cold {
		for _, s := range env.hotSQL {
			out = append(out, op{kind: opHot, sql: s})
		}
	}
	if env.w.Sketches {
		for _, s := range sketchSQLs {
			out = append(out, op{kind: opSketch, sql: s})
		}
	}
	if len(env.fresh) > 0 {
		g := newGenerator(env, streamSeed(seed, streamWarmup))
		for i := 0; i < env.sz.FreshWarmup; i++ {
			out = append(out, g.fresh())
		}
	}
	return out
}

// newTable generates the fact table every workload runs over.
func newTable(sz *sizes) *table.Table {
	return datagen.StoreSales(&datagen.StoreSalesOptions{Rows: sz.Rows, Seed: dataSeed})
}

// sampleRows draws n real rows of tb as Append-shaped value slices.
func sampleRows(tb *table.Table, n int, seed int64) [][]interface{} {
	rng := rand.New(rand.NewSource(seed + 97))
	rows := make([][]interface{}, n)
	for i := range rows {
		r := rng.Intn(tb.NumRows())
		row := make([]interface{}, len(tb.Columns))
		for j, c := range tb.Columns {
			switch c.Type {
			case table.Float64:
				row[j] = c.Float(r)
			case table.Int64:
				row[j] = c.Ints[r]
			default:
				row[j] = c.Str(r)
			}
		}
		rows[i] = row
	}
	return rows
}

func domain(tb *table.Table, col string) (lo, hi float64, err error) {
	xs, err := tb.Floats(col)
	if err != nil {
		return 0, 0, err
	}
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("column %s is empty", col)
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi, nil
}
