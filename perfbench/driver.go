package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dbest"
	"dbest/internal/sqlparse"
)

// counters are the engine's public *Stats, read outside the timed loop.
type counters struct {
	plan   dbest.PlanCacheStats
	kernel dbest.EvalKernelStats
	shard  dbest.ShardStats
	router dbest.RouterStats
	sketch dbest.SketchStats
	snap   dbest.SnapshotStats
	rows   int
}

func readCounters(eng *dbest.Engine) counters {
	return counters{
		plan: eng.PlanCacheStats(), kernel: eng.EvalKernelStats(), shard: eng.ShardStats(),
		router: eng.RouterStats(), sketch: eng.SketchStats(), snap: eng.SnapshotStats(),
		rows: eng.Table(tableName).NumRows(),
	}
}

// clientOut is what one closed-loop client recorded.
type clientOut struct {
	queryLat, appendLat []uint32 // ns, in op order
	queries, appends    int
	rowsAppended        int
	shardOps            int
	failed              int
	failures            []string

	// Traced replay only: rows appended inside Append spans, and the
	// table rows each exact-served Run scanned.
	tracedRows          int
	exactRows, exactOps int
	rec                 recorder

	// Sinks keep the results of calls made only to be timed.
	sinkKey   string
	sinkQuery *sqlparse.Query
}

const maxFailures = 5

func (c *clientOut) fail(o *op, msg string) {
	c.failed++
	if len(c.failures) < maxFailures {
		c.failures = append(c.failures, fmt.Sprintf("%q: %s", o.sql, msg))
	}
}

// checkAnswer is the correctness gate every answer passes: no error, one
// aggregate, the expected source and a finite value. It returns why the
// answer fails, or "".
func checkAnswer(o *op, res *dbest.Result, err error) string {
	if err != nil {
		return err.Error()
	}
	if len(res.Aggregates) != 1 {
		return fmt.Sprintf("%d aggregates, want 1", len(res.Aggregates))
	}
	want := dbest.PathModel
	switch {
	case o.kind == opSketch:
		want = dbest.PathSketch
	case o.kind == opWithin && res.Source == dbest.PathExact:
		want = dbest.PathExact
	}
	if res.Source != want {
		return fmt.Sprintf("answered from %q, want %q", res.Source, want)
	}
	a := res.Aggregates[0]
	if math.IsNaN(a.Value) || math.IsInf(a.Value, 0) {
		return fmt.Sprintf("non-finite value %v", a.Value)
	}
	if o.kind == opSketch && o.sql == sketchSQLs[1] && len(a.TopK) == 0 {
		return "empty TOP list"
	}
	return ""
}

func since(t time.Time) uint32 {
	return uint32(min(time.Since(t), time.Duration(math.MaxUint32)))
}

// do runs one op untraced, timing only the engine call.
func (c *clientOut) do(eng *dbest.Engine, o *op) {
	if o.kind == opAppend {
		t := time.Now()
		res, err := eng.Append(tableName, o.rows)
		c.appendLat = append(c.appendLat, since(t))
		c.appended(o, res, err)
		return
	}
	t := time.Now()
	res, err := eng.Query(o.sql)
	c.queryLat = append(c.queryLat, since(t))
	c.queries++
	if o.shard {
		c.shardOps++
	}
	if msg := checkAnswer(o, res, err); msg != "" {
		c.fail(o, msg)
	}
}

func (c *clientOut) appended(o *op, res *dbest.AppendResult, err error) {
	c.appends++
	if err == nil && (res.Appended != len(o.rows) || res.Rejected != 0) {
		err = fmt.Errorf("appended %d of %d rows", res.Appended, len(o.rows))
	}
	if err != nil {
		c.fail(o, err.Error())
		return
	}
	c.rowsAppended += res.Appended
}

// doTraced runs one op with a span around each call into a layer. A hot
// op keeps its Engine.Query call, because Prepare+Run would skip the
// result memo, and times the front-end calls beside it; every other query
// op is split into Engine.Prepare and PreparedQuery.Run, which does what
// Engine.Query does for fresh, WITHIN and sketch reads.
func (c *clientOut) doTraced(eng *dbest.Engine, o *op, opID int64) {
	r := &c.rec
	root := r.open(opID)
	defer r.close(root)
	if o.kind == opAppend {
		t := r.now()
		res, err := eng.Append(tableName, o.rows)
		r.add(root, spanAppend, tagNone, t, r.now())
		c.appended(o, res, err)
		if err == nil {
			c.tracedRows += res.Appended
		}
		return
	}
	c.queries++
	t := r.now()
	c.sinkKey = sqlparse.Normalize(o.sql)
	r.add(root, spanNormalize, tagNone, t, r.now())
	t = r.now()
	q, perr := sqlparse.Parse(o.sql)
	r.add(root, spanParse, tagNone, t, r.now())
	c.sinkQuery = q
	if perr != nil {
		c.fail(o, perr.Error())
		return
	}
	var (
		res *dbest.Result
		err error
	)
	if o.kind == opHot {
		t = r.now()
		_, err = eng.Prepare(o.sql)
		r.add(root, spanPrepare, tagHit, t, r.now())
		if err == nil {
			t = r.now()
			res, err = eng.Query(o.sql)
			r.add(root, spanQuery, tagNone, t, r.now())
		}
	} else {
		tag := tagMiss
		if o.kind == opSketch {
			tag = tagHit
		}
		t = r.now()
		p, perr := eng.Prepare(o.sql)
		r.add(root, spanPrepare, tag, t, r.now())
		err = perr
		if err == nil {
			t = r.now()
			res, err = p.Run()
			end := r.now()
			r.add(root, spanRun, runTag(o, res), t, end)
		}
	}
	if o.shard {
		c.shardOps++
	}
	if msg := checkAnswer(o, res, err); msg != "" {
		c.fail(o, msg)
		return
	}
	if res.Source == dbest.PathExact {
		c.exactRows += eng.Table(tableName).NumRows()
		c.exactOps++
	}
}

// runTag names the path a Run was answered by.
func runTag(o *op, res *dbest.Result) spanTag {
	switch {
	case res == nil:
		return tagNone
	case res.Source == dbest.PathSketch:
		return tagSketch
	case res.Source == dbest.PathExact:
		return tagExact
	case o.shard:
		return tagShard
	}
	return tagModel
}

// replayOut is one replay of every client's op sequence.
type replayOut struct {
	clients []clientOut
	// roundEnds holds each client's query count at the end of each round,
	// roundWalls each round's wall time.
	roundEnds  [][]int
	roundWalls []time.Duration
	wall       time.Duration
	mem        [2]runtime.MemStats
	ctr        [2]counters
}

// replay runs the clients' fixed op sequences against eng in closed loops:
// each client issues its next op only when the previous one returned. The
// sequence is split into rounds that start together, so a round's
// throughput is its queries over its wall time. With traced set, every
// stride-th op of each client records spans.
func replay(eng *dbest.Engine, env *genEnv, seed int64, opsPerClient int, traced bool) *replayOut {
	sz := env.sz
	gens := make([]*generator, clients)
	out := &replayOut{clients: make([]clientOut, clients)}
	stride := 1
	if traced {
		stride = max(1, (opsPerClient+sz.TracedOpsCap-1)/sz.TracedOpsCap)
	}
	for c := range gens {
		gens[c] = newGenerator(env, streamSeed(seed, c))
		out.clients[c].queryLat = make([]uint32, 0, opsPerClient)
		if env.w.Mix.Append > 0 {
			out.clients[c].appendLat = make([]uint32, 0, opsPerClient)
		}
		if traced {
			out.clients[c].rec.spans = make([]span, 0, 6*min(opsPerClient, sz.TracedOpsCap))
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&out.mem[0])
	out.ctr[0] = readCounters(eng)
	base := time.Now()
	for c := range out.clients {
		out.clients[c].rec.base = base
	}
	for r := 0; r < sz.Rounds; r++ {
		lo, hi := r*opsPerClient/sz.Rounds, (r+1)*opsPerClient/sz.Rounds
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := range out.clients {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				co := &out.clients[c]
				for i := lo; i < hi; i++ {
					o := gens[c].next()
					if traced && i%stride == 0 {
						co.doTraced(eng, &o, int64(c)<<40|int64(i))
					} else {
						co.do(eng, &o)
					}
				}
			}(c)
		}
		wg.Wait()
		out.roundWalls = append(out.roundWalls, time.Since(t0))
		ends := make([]int, len(out.clients))
		for c := range out.clients {
			ends[c] = len(out.clients[c].queryLat)
		}
		out.roundEnds = append(out.roundEnds, ends)
	}
	out.wall = time.Since(base)
	runtime.ReadMemStats(&out.mem[1])
	out.ctr[1] = readCounters(eng)
	return out
}

// roundStats returns, per round, throughput and the p50/p99 latency of
// the round's queries pooled over clients.
func (out *replayOut) roundStats() (qps, p50, p99 []float64) {
	starts := make([]int, len(out.clients))
	for r, ends := range out.roundEnds {
		var lat []uint32
		for c, end := range ends {
			lat = append(lat, out.clients[c].queryLat[starts[c]:end]...)
			starts[c] = end
		}
		a, b := latencyPercentiles(lat)
		qps = append(qps, float64(len(lat))/out.roundWalls[r].Seconds())
		p50, p99 = append(p50, a), append(p99, b)
	}
	return qps, p50, p99
}

func (out *replayOut) ops() (queries, appends int) {
	for _, c := range out.clients {
		queries += c.queries
		appends += c.appends
	}
	return queries, appends
}

// warm runs ops once, untimed, so a replay starts with a filled cache.
func warm(eng *dbest.Engine, ops []op) *clientOut {
	c := &clientOut{}
	for i := range ops {
		res, err := eng.Query(ops[i].sql)
		if msg := checkAnswer(&ops[i], res, err); msg != "" {
			c.fail(&ops[i], msg)
		}
	}
	return c
}
