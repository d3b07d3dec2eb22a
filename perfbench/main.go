// Command perfbench is the repository's benchmark: it drives one
// in-process engine with two closed-loop clients replaying fixed, seeded
// op sequences, checks every answer, and prints end-to-end metrics (or,
// with --trace 1, per-layer metrics from a traced replay).
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload hot-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result: a JSON object with
// correct, attempted, failed and metrics. The line before it is the full
// report (environment, configuration, every metric, self-checks). The
// process exits 1 when any check fails and 2 on bad arguments.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"dbest"
	"dbest/internal/sqlparse"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndNames and perLayerNames are the metrics the result line carries
// with --trace 0 and --trace 1; they match BENCHMARK.json.
var endToEndNames = []string{
	"setup_s", "qps", "query_p50_us", "query_p99_us", "rel_err_p50", "rel_err_p95",
	"ci_coverage", "model_bytes", "heap_live_mib",
}

var perLayerNames = []string{
	"sqlparse.normalize_ns", "sqlparse.parse_ns", "sqlparse.normalize_allocs", "sqlparse.parse_allocs",
	"plancache.hit_ratio", "plancache.evictions", "plancache.resets",
	"prepare.hit_ns", "prepare.miss_ns",
	"exec.model_ns", "exec.shard_ns", "exec.sketch_ns", "exec.exact_ns",
	"core.grid_hit_ratio", "core.quad_nonconverged",
	"shard.prune_ratio", "shard.evaluated_per_query",
	"router.fallback_share", "router.observations",
	"exact.rows_per_scan",
	"sketch.hits", "sketch.updates_per_row",
	"ingest.rows_per_s", "ingest.append_p50_us", "ingest.append_p99_us",
	"catalog.generations", "catalog.rebuilds",
	"train.uni_s", "train.sharded_s", "sketch.build_s",
	"go.allocs_per_op", "go.bytes_per_op", "go.gc_cycles", "go.gc_pause_ms",
	"trace.overhead_ratio",
}

// envInfo records where a run was measured.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	env := envInfo{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: "unknown",
	}
	modified := false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				modified = s.Value == "true"
			}
		}
	}
	if modified {
		env.Commit += "+modified"
	}
	return env
}

// fixedShape records the constants every run shares.
type fixedShape struct {
	Clients     int `json:"clients"`
	HotShapes   int `json:"hot_shapes"`
	Shards      int `json:"shards"`
	AppendBatch int `json:"append_batch"`
}

// report is everything one run measured.
type report struct {
	Env          envInfo      `json:"env"`
	Workload     *workloadDef `json:"workload"`
	Sizes        sizes        `json:"sizes"`
	Fixed        fixedShape   `json:"fixed"`
	Seed         int64        `json:"seed"`
	OpsPerClient int          `json:"ops_per_client"`
	Traced       bool         `json:"traced"`
	Correct      bool         `json:"correct"`
	Attempted    int          `json:"attempted"`
	Failed       int          `json:"failed"`
	Failures     []string     `json:"failures,omitempty"`
	SelfChecks   []selfCheck  `json:"self_checks"`
	// Rounds are the untraced replay's per-round figures the end-to-end
	// qps and latency percentiles are the medians of.
	Rounds struct {
		QPS   []float64 `json:"qps"`
		P50Us []float64 `json:"query_p50_us"`
		P99Us []float64 `json:"query_p99_us"`
	} `json:"rounds"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	SpansFile string            `json:"spans_file,omitempty"`
}

func (r *report) count(c *clientOut, attempted int) {
	r.Attempted += attempted
	r.Failed += c.failed
	for _, f := range c.failures {
		if len(r.Failures) < maxFailures {
			r.Failures = append(r.Failures, f)
		}
	}
}

// run executes one workload end to end: generate the table, set the
// engine up SetupReps times, answer the check set, replay the op
// sequences untraced, and with traced also replay them with spans.
func run(w *workloadDef, sz *sizes, seed int64, opsPerClient int, traced bool, spansDir string) (*report, error) {
	if sz.SetupReps < 3 {
		return nil, fmt.Errorf("need at least 3 set-ups (check set, untraced and traced replays), got %d", sz.SetupReps)
	}
	rep := &report{Env: environment(), Workload: w, Sizes: *sz, Seed: seed,
		Fixed:        fixedShape{clients, hotShapes, shards, appendBatch},
		OpsPerClient: opsPerClient, Traced: traced,
		EndToEnd: map[string]metric{}}
	tb := newTable(sz)
	env, err := newGenEnv(w, sz, tb, seed)
	if err != nil {
		return nil, err
	}

	engines := make([]*dbest.Engine, sz.SetupReps)
	var total, uni, sharded, sketch []float64
	for i := range engines {
		runtime.GC()
		eng, st, err := setupEngine(w, sz, tb)
		if err != nil {
			return nil, err
		}
		engines[i] = eng
		total = append(total, st.Total.Seconds())
		uni = append(uni, st.Uni.Seconds())
		sharded = append(sharded, st.Sharded.Seconds())
		sketch = append(sketch, st.Sketch.Seconds())
	}
	e2e := rep.EndToEnd
	e2e["setup_s"] = metric{median(total), "s"}

	// The check set runs on an engine of its own, so the replays start
	// from the same cache and router state whatever its size.
	checks := checkOps(env, seed)
	acc, err := checkAccuracy(engines[0], tb, checks)
	if err != nil {
		return nil, fmt.Errorf("ground truth: %w", err)
	}
	rep.count(&acc.out, len(checks))
	e2e["rel_err_p50"] = metric{acc.p(0.50), "ratio"}
	e2e["rel_err_p95"] = metric{acc.p(0.95), "ratio"}
	e2e["ci_coverage"] = metric{acc.coverage(), "ratio"}
	e2e["ci_miss_rate"] = metric{1 - acc.coverage(), "ratio"}
	e2e["check_exact_share"] = metric{acc.exactShare(), "ratio"}
	rep.SelfChecks = append(rep.SelfChecks,
		selfCheck{"accuracy", e2e["rel_err_p50"].Value <= maxRelErrP50 && acc.coverage() >= minCICoverage,
			fmt.Sprintf("rel_err_p50 %.4f (max %.2f), ci_coverage %.4f (min %.2f) over %d approximate answers; %d exact-served",
				e2e["rel_err_p50"].Value, maxRelErrP50, acc.coverage(), minCICoverage, len(acc.relErrs), acc.exactServed)})

	// The last engine serves the untraced replay, the one before it the
	// traced replay. The others, like every local not used below, are
	// garbage by the time the live heap is read, which counts one engine.
	eng, tEng := engines[len(engines)-1], engines[len(engines)-2]
	warmups := warmupOps(env, seed)
	rep.count(warm(eng, warmups), len(warmups))
	out := replay(eng, env, seed, opsPerClient, false)
	queries, appends := out.ops()
	for i := range out.clients {
		rep.count(&out.clients[i], 0)
	}
	rep.Attempted += queries + appends
	qps, p50, p99 := out.roundStats()
	rep.Rounds.QPS, rep.Rounds.P50Us, rep.Rounds.P99Us = qps, p50, p99
	e2e["qps"] = metric{median(qps), "1/s"}
	e2e["query_p50_us"] = metric{median(p50), "us"}
	e2e["query_p99_us"] = metric{median(p99), "us"}
	var appendLat []uint32
	for _, c := range out.clients {
		appendLat = append(appendLat, c.appendLat...)
	}
	if len(appendLat) > 0 {
		a50, a99 := latencyPercentiles(appendLat)
		e2e["append_p50_us"] = metric{a50, "us"}
		e2e["append_p99_us"] = metric{a99, "us"}
	}
	e2e["model_bytes"] = metric{float64(eng.ModelBytes()), "bytes"}
	rep.SelfChecks = append(rep.SelfChecks, selfChecks(w, out)...)

	var pl map[string]metric
	if traced {
		pl = untracedLayers(out, queries, appendLat, sharded, uni, sketch, generatorAllocs(env, seed, opsPerClient))
		rep.count(warm(tEng, warmups), len(warmups))
		tout := replay(tEng, env, seed, opsPerClient, true)
		tq, ta := tout.ops()
		rep.Attempted += tq + ta
		spans := make([][]span, len(tout.clients))
		for i := range tout.clients {
			rep.count(&tout.clients[i], 0)
			spans[i] = tout.clients[i].rec.spans
		}
		tracedLayers(pl, tout, spans)
		// The traced replay's whole cost against the untraced one: span
		// recording plus the extra Normalize, Parse and Prepare calls a
		// traced op makes beside its engine call.
		pl["trace.overhead_ratio"] = metric{tout.wall.Seconds() / out.wall.Seconds(), "ratio"}
		allocs := frontEndAllocs(env, seed)
		pl["sqlparse.normalize_allocs"] = metric{allocs[0], "count"}
		pl["sqlparse.parse_allocs"] = metric{allocs[1], "count"}
		rep.SpansFile = filepath.Join(spansDir, fmt.Sprintf("spans-%s-seed%d.tsv", w.Name, seed))
		if err := writeSpans(rep.SpansFile, spans); err != nil {
			return nil, err
		}
		rep.PerLayer = pl
	}

	// Live heap once the replay's latency buffers are garbage: what the
	// engine itself holds after serving the workload.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e2e["heap_live_mib"] = metric{float64(ms.HeapAlloc) / (1 << 20), "MiB"}
	runtime.KeepAlive(eng)

	e2e["error_rate"] = metric{ratio(float64(rep.Failed), float64(rep.Attempted)), "ratio"}
	rep.Correct = rep.Failed == 0
	for _, c := range rep.SelfChecks {
		rep.Correct = rep.Correct && c.OK
	}
	return rep, nil
}

// untracedLayers computes the per-layer metrics that come from counter
// deltas and latencies of the untraced replay and from set-up timings.
// gen is what drawing the op sequences allocated, which the replay's
// MemStats deltas include and the go.* figures leave out.
func untracedLayers(out *replayOut, queries int, appendLat []uint32, sharded, uni, sketch []float64, gen allocs) map[string]metric {
	d0, d1 := out.ctr[0], out.ctr[1]
	hits, misses := float64(d1.plan.Hits-d0.plan.Hits), float64(d1.plan.Misses-d0.plan.Misses)
	gridHits := float64(d1.kernel.GridHits - d0.kernel.GridHits)
	gridFalls := float64(d1.kernel.GridFallbacks - d0.kernel.GridFallbacks)
	evaluated := float64(d1.shard.Evaluated - d0.shard.Evaluated)
	pruned := float64(d1.shard.Pruned - d0.shard.Pruned)
	served := float64(d1.router.ModelHits - d0.router.ModelHits)
	fell := float64(d1.router.ExactFallbacks - d0.router.ExactFallbacks)
	shardOps, rows := 0, 0
	for _, c := range out.clients {
		shardOps += c.shardOps
		rows += c.rowsAppended
	}
	_, appends := out.ops()
	ops := float64(queries + appends)
	m0, m1 := &out.mem[0], &out.mem[1]
	a50, a99 := 0.0, 0.0
	if len(appendLat) > 0 {
		a50, a99 = latencyPercentiles(appendLat)
	}
	return map[string]metric{
		"plancache.hit_ratio":       {ratio(hits, hits+misses), "ratio"},
		"plancache.evictions":       {float64(d1.plan.Evictions - d0.plan.Evictions), "count"},
		"plancache.resets":          {float64(d1.plan.Resets - d0.plan.Resets), "count"},
		"core.grid_hit_ratio":       {ratio(gridHits, gridHits+gridFalls), "ratio"},
		"core.quad_nonconverged":    {float64(d1.kernel.QuadNonconverged - d0.kernel.QuadNonconverged), "count"},
		"shard.prune_ratio":         {ratio(pruned, pruned+evaluated), "ratio"},
		"shard.evaluated_per_query": {ratio(evaluated, float64(shardOps)), "count"},
		"router.fallback_share":     {ratio(fell, served+fell), "ratio"},
		"router.observations":       {float64(d1.router.Observations - d0.router.Observations), "count"},
		"sketch.hits":               {float64(d1.sketch.Hits - d0.sketch.Hits), "count"},
		"sketch.updates_per_row":    {ratio(float64(d1.sketch.Updates-d0.sketch.Updates), float64(rows)), "count"},
		"ingest.append_p50_us":      {a50, "us"},
		"ingest.append_p99_us":      {a99, "us"},
		"catalog.generations":       {float64(d1.snap.Generation - d0.snap.Generation), "count"},
		"catalog.rebuilds":          {float64(d1.snap.Rebuilds - d0.snap.Rebuilds), "count"},
		"train.uni_s":               {median(uni), "s"},
		"train.sharded_s":           {median(sharded), "s"},
		"sketch.build_s":            {median(sketch), "s"},
		"go.allocs_per_op":          {ratio(max(0, float64(m1.Mallocs-m0.Mallocs)-gen.mallocs), ops), "count"},
		"go.bytes_per_op":           {ratio(max(0, float64(m1.TotalAlloc-m0.TotalAlloc)-gen.bytes), ops), "bytes"},
		"go.gc_cycles":              {float64(m1.NumGC - m0.NumGC), "count"},
		"go.gc_pause_ms":            {float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"},
	}
}

// tracedLayers adds the per-layer times of the traced replay: the mean
// self time of each layer call, by tag.
func tracedLayers(pl map[string]metric, tout *replayOut, spans [][]span) {
	sum, count := layerTimes(spans)
	mean := func(name spanName, tag spanTag) float64 {
		k := layerKey{name, tag}
		return ratio(float64(sum[k]), float64(count[k]))
	}
	pl["sqlparse.normalize_ns"] = metric{mean(spanNormalize, tagNone), "ns"}
	pl["sqlparse.parse_ns"] = metric{mean(spanParse, tagNone), "ns"}
	pl["prepare.hit_ns"] = metric{mean(spanPrepare, tagHit), "ns"}
	pl["prepare.miss_ns"] = metric{mean(spanPrepare, tagMiss), "ns"}
	pl["exec.model_ns"] = metric{mean(spanRun, tagModel), "ns"}
	pl["exec.shard_ns"] = metric{mean(spanRun, tagShard), "ns"}
	pl["exec.sketch_ns"] = metric{mean(spanRun, tagSketch), "ns"}
	pl["exec.exact_ns"] = metric{mean(spanRun, tagExact), "ns"}
	var rows, exactRows, exactOps int
	for _, c := range tout.clients {
		rows += c.tracedRows
		exactRows += c.exactRows
		exactOps += c.exactOps
	}
	appendS := float64(sum[layerKey{spanAppend, tagNone}]) / 1e9
	pl["ingest.rows_per_s"] = metric{ratio(float64(rows), appendS), "rows/s"}
	pl["exact.rows_per_scan"] = metric{ratio(float64(exactRows), float64(exactOps)), "rows"}
}

// allocs is a heap allocation count and volume.
type allocs struct{ mallocs, bytes float64 }

// generatorAllocs draws every client's op sequence of a replay once,
// without calling the engine, and returns what that allocated: the SQL
// texts of fresh and WITHIN reads.
func generatorAllocs(env *genEnv, seed int64, opsPerClient int) allocs {
	gens := make([]*generator, clients)
	for c := range gens {
		gens[c] = newGenerator(env, streamSeed(seed, c))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, g := range gens {
		for i := 0; i < opsPerClient; i++ {
			g.next()
		}
	}
	runtime.ReadMemStats(&m1)
	return allocs{float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc - m0.TotalAlloc)}
}

// frontEndAllocs measures heap allocations per sqlparse.Normalize and per
// sqlparse.Parse call over the workload's own query texts, on one
// goroutine with nothing else running.
func frontEndAllocs(env *genEnv, seed int64) [2]float64 {
	g := newGenerator(env, streamSeed(seed, 0))
	var sqls []string
	for len(sqls) < 256 {
		if o := g.next(); o.kind != opAppend {
			sqls = append(sqls, o.sql)
		}
	}
	var sinkKey string
	var sinkQuery *sqlparse.Query
	measure := func(call func(string)) float64 {
		const reps = 4
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for r := 0; r < reps; r++ {
			for _, s := range sqls {
				call(s)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(reps*len(sqls))
	}
	out := [2]float64{
		measure(func(s string) { sinkKey = sqlparse.Normalize(s) }),
		measure(func(s string) { sinkQuery, _ = sqlparse.Parse(s) }),
	}
	runtime.KeepAlive(sinkKey)
	runtime.KeepAlive(sinkQuery)
	return out
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	var (
		name     = flag.String("workload", "", "workload: hot-zipf, cold-spans or mixed-ingest")
		seed     = flag.Int64("seed", 1, "workload seed: shapes, spans, op order, appended rows and check set")
		seconds  = flag.Int("seconds", 10, "sizes the fixed op sequences (see OpsPerClientSecond)")
		trace    = flag.Int("trace", 0, "1: also replay with spans and print per-layer metrics")
		spansDir = flag.String("spans-dir", filepath.Join(".bench_build", "perfbench"), "where the traced run writes its spans")
	)
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		flag.Usage()
		return 2
	}
	t0 := time.Now()
	sz := defaultSizes
	rep, err := run(w, &sz, *seed, *seconds*w.OpsPerClientSecond, *trace == 1, *spansDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	res := result{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
	names, from := endToEndNames, rep.EndToEnd
	if rep.Traced {
		names, from = perLayerNames, rep.PerLayer
	}
	for _, n := range names {
		m, ok := from[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", n)
			return 1
		}
		res.Metrics[n] = m
	}
	printSummary(rep, time.Since(t0))
	for _, v := range []any{rep, res} {
		b, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Println(string(b))
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// printSummary writes a human-readable account of the run to stderr.
func printSummary(rep *report, took time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench %s seed=%d ops/client=%d traced=%v (%s, GOMAXPROCS=%d, nproc=%d, commit %s) took %.1fs\n",
		rep.Workload.Name, rep.Seed, rep.OpsPerClient, rep.Traced, rep.Env.GoVersion,
		rep.Env.GOMAXPROCS, rep.Env.NProc, rep.Env.Commit, took.Seconds())
	for _, section := range []map[string]metric{rep.EndToEnd, rep.PerLayer} {
		for _, n := range sortedKeys(section) {
			fmt.Fprintf(os.Stderr, "  %-28s %16.6g %s\n", n, section[n].Value, section[n].Unit)
		}
	}
	for _, c := range rep.SelfChecks {
		fmt.Fprintf(os.Stderr, "  check %-28s ok=%v  %s\n", c.Name, c.OK, c.Detail)
	}
	fmt.Fprintf(os.Stderr, "  attempted=%d failed=%d\n", rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(os.Stderr, "  failure: %s\n", f)
	}
}
