package dbest_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"dbest"
	"dbest/internal/datagen"
	"dbest/internal/sqlparse"
)

func TestPrepareAndRun(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	p, err := eng.Prepare(`SELECT AVG(ss_sales_price) FROM store_sales
		WHERE ss_sold_date_sk BETWEEN 200 AND 600`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Path() != dbest.PathModel {
		t.Fatalf("path = %q, want %q", p.Path(), dbest.PathModel)
	}
	if keys := p.ModelKeys(); len(keys) != 1 || !strings.Contains(keys[0], "store_sales") {
		t.Fatalf("model keys = %v", keys)
	}
	res1, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res1.Aggregates[0].Value != res2.Aggregates[0].Value {
		t.Fatalf("repeated Run disagrees: %v vs %v", res1.Aggregates[0].Value, res2.Aggregates[0].Value)
	}
	if res1.Source != "model" {
		t.Fatalf("source = %q, want model", res1.Source)
	}
}

func TestPlanCacheHitMiss(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	if st := eng.PlanCacheStats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("fresh engine stats = %+v", st)
	}
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	if _, err := eng.Query(sql); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 0 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after first query: %+v, want 1 miss, 1 entry", st)
	}
	// The same shape with different whitespace, keyword case and number
	// formatting must hit: the cache keys on normalized SQL.
	if _, err := eng.Query("select  avg(ss_sales_price)  from store_sales " +
		"where ss_sold_date_sk between 200.0 and 600 ;"); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("after equivalent query: %+v, want 1 hit, 1 entry", st)
	}
	// Different bounds are a different shape: miss, second entry.
	if _, err := eng.Query("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 100 AND 300"); err != nil {
		t.Fatal(err)
	}
	if st := eng.PlanCacheStats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("after new shape: %+v, want 2 misses, 2 entries", st)
	}
}

func TestPlanCacheInvalidatedByTrain(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	// ss_quantity has no model yet: the plan falls to the exact path and is
	// cached as such.
	sql := "SELECT AVG(ss_quantity) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("pre-train source = %q, want exact", res.Source)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_quantity",
		SampleSize: 5000, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Training bumped the catalog generation: the cached exact plan must be
	// invalidated and the query re-planned onto the new model.
	res, err = eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("post-train source = %q, want model", res.Source)
	}
	st := eng.PlanCacheStats()
	if st.Misses < 2 {
		t.Fatalf("stats = %+v: invalidation should force a second planning miss", st)
	}
	// The generation bump drops every stale entry, not just the looked-up
	// key — cached plans must not pin replaced model sets in memory.
	if st.Entries != 1 {
		t.Fatalf("stats = %+v: stale plans should be wiped on invalidation, leaving 1 entry", st)
	}
}

func TestPlanCacheInvalidatedByLoadModels(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	path := filepath.Join(t.TempDir(), "models.gob")
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}

	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 1})
	fresh := dbest.New(nil)
	if err := fresh.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	res, err := fresh.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" {
		t.Fatalf("pre-load source = %q, want exact", res.Source)
	}
	if err := fresh.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	res, err = fresh.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("post-load source = %q, want model", res.Source)
	}
}

// TestConcurrentQueryTrain races many readers of the plan cache and catalog
// against a writer retraining model sets. Run with -race this is the
// engine-level counterpart of the dbest-serve load test.
func TestConcurrentQueryTrain(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	var wg sync.WaitGroup
	errs := make(chan error, 9)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := (c*25 + i) % 400
				sql := fmt.Sprintf("SELECT AVG(ss_sales_price) FROM store_sales"+
					" WHERE ss_sold_date_sk BETWEEN %d AND %d", lo, lo+300)
				if i%2 == 0 { // fixed shape: exercises the cache-hit path
					sql = "SELECT COUNT(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 0 AND 700"
				}
				if _, err := eng.Query(sql); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
				Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_quantity",
				SampleSize: 1000, Seed: int64(i),
			}); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTrainJoinSampledRejectsBadRatio(t *testing.T) {
	eng := dbest.New(nil)
	cases := []struct{ num, denom uint64 }{{0, 4}, {1, 0}, {0, 0}, {5, 4}}
	for _, c := range cases {
		_, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "a", XCols: []string{"x"}, YCol: "y",
			Join: &dbest.JoinSpec{Table: "b", LeftKey: "k", RightKey: "k", Sampled: true, SampleNum: c.num, SampleDenom: c.denom},
		})
		if err == nil {
			t.Fatalf("ratio %d/%d: want error, got nil", c.num, c.denom)
		}
		if !strings.Contains(err.Error(), "ratio") {
			t.Fatalf("ratio %d/%d: error %q should reject the keep ratio", c.num, c.denom, err)
		}
	}
	// A valid ratio proceeds to the next check (unregistered tables).
	_, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "a", XCols: []string{"x"}, YCol: "y",
		Join: &dbest.JoinSpec{Table: "b", LeftKey: "k", RightKey: "k", Sampled: true, SampleNum: 1, SampleDenom: 4},
	})
	if err == nil || !strings.Contains(err.Error(), "registered") {
		t.Fatalf("valid ratio: err = %v, want unregistered-table error", err)
	}
}

func TestCountStarAllStringColumns(t *testing.T) {
	eng := dbest.New(nil)
	tb := dbest.NewTable("labels")
	tb.AddStringColumn("a", []string{"x", "y", "z"})
	tb.AddStringColumn("b", []string{"p", "q", "r"})
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	_, err := eng.Query("SELECT COUNT(*) FROM labels")
	if err == nil {
		t.Fatal("COUNT(*) over all-string table: want error, got nil")
	}
	if !strings.Contains(err.Error(), "numeric column") {
		t.Fatalf("error %q should explain the missing numeric column", err)
	}
}

// TestStdlibOnly is the regression test for the headline bugfix: the module
// must declare no external dependencies, so `go build ./...` works from a
// fresh clone with nothing but the Go toolchain.
func TestStdlibOnly(t *testing.T) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatalf("go.mod must exist at the module root: %v", err)
	}
	mod := string(data)
	if !strings.Contains(mod, "module dbest") {
		t.Fatalf("go.mod must declare module dbest:\n%s", mod)
	}
	if strings.Contains(mod, "require") {
		t.Fatalf("go.mod must not require external modules:\n%s", mod)
	}
}

// BenchmarkPrepare shows what the plan cache saves on a repeated query
// shape: a cache hit skips the parser and the catalog scan entirely.
func BenchmarkPrepareCached(b *testing.B) {
	eng := benchSalesEngine(b)
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	if _, err := eng.Prepare(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Prepare(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepareColdSpan measures the plan-cache miss path: every
// Prepare sees a span literal not in the cache, so it pays one lex, a parse,
// planning and a put — and every 1024 puts a capacity reset.
func BenchmarkPrepareColdSpan(b *testing.B) {
	eng := benchSalesEngine(b)
	sqls := coldSpanSQL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Prepare(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eng.PlanCacheStats(); st.Hits != 0 {
		b.Fatalf("cold spans hit the plan cache: %+v", st)
	}
}

func BenchmarkQueryCached(b *testing.B) {
	eng := benchSalesEngine(b)
	sql := "SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryColdSpan measures Query on the miss path: lex, parse,
// plan, put, then one model execution memoized on the fresh entry.
func BenchmarkQueryColdSpan(b *testing.B) {
	eng := benchSalesEngine(b)
	sqls := coldSpanSQL()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sqls[i%len(sqls)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := eng.PlanCacheStats(); st.Hits != 0 {
		b.Fatalf("cold spans hit the plan cache: %+v", st)
	}
}

// coldSpanSQL builds one query shape with 4096 distinct BETWEEN literals —
// four times the plan cache's capacity, so by the time a text comes round
// again a capacity reset has dropped it and every lookup misses.
func coldSpanSQL() []string {
	sqls := make([]string, 4096)
	for i := range sqls {
		lb := 200 + float64(i)/16
		sqls[i] = fmt.Sprintf("SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN %v AND %v", lb, lb+400)
	}
	return sqls
}

func benchSalesEngine(b *testing.B) *dbest.Engine {
	b.Helper()
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 20000, Seed: 1})
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		b.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "store_sales", XCols: []string{"ss_sold_date_sk"}, YCol: "ss_sales_price",
		SampleSize: 5000, Seed: 1,
	}); err != nil {
		b.Fatal(err)
	}
	return eng
}

// TestPlanCacheEvictionCounters: capacity resets and generation wipes are
// counted, and hit/miss counters survive both kinds of wholesale drop.
func TestPlanCacheEvictionCounters(t *testing.T) {
	eng := dbest.NewWithPlanCache(2)
	s1 := "SELECT COUNT(a) FROM t WHERE a BETWEEN 1 AND 2"
	s2 := "SELECT COUNT(a) FROM t WHERE a BETWEEN 3 AND 4"
	s3 := "SELECT COUNT(a) FROM t WHERE a BETWEEN 5 AND 6"
	for _, sql := range []string{s1, s1, s2} {
		if _, err := eng.Prepare(sql); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Third distinct shape overflows max=2: wholesale capacity reset.
	if _, err := eng.Prepare(s3); err != nil {
		t.Fatal(err)
	}
	st = eng.PlanCacheStats()
	if st.Resets != 1 || st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("after capacity reset: %+v", st)
	}
	if st.Hits != 1 || st.Misses != 3 {
		t.Fatalf("hit/miss counters must survive a reset: %+v", st)
	}

	// A catalog mutation bumps the generation: the next lookup wipes the
	// map, counts the wipe and the evictions, and keeps hits/misses.
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(2 * i)
	}
	tb := dbest.NewTable("t")
	tb.AddFloatColumn("a", xs)
	tb.AddFloatColumn("b", ys)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
		Table: "t", XCols: []string{"a"}, YCol: "b",
		SampleSize: 100, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Prepare(s3); err != nil {
		t.Fatal(err)
	}
	st = eng.PlanCacheStats()
	if st.GenerationWipes != 1 || st.Evictions != 3 {
		t.Fatalf("after generation wipe: %+v", st)
	}
	if st.Hits != 1 || st.Misses != 4 {
		t.Fatalf("hit/miss counters must survive a wipe: %+v", st)
	}
}

// TestCachedQueryAllocs gates the hot path's allocations: a cached model
// query allocates only its Result and that Result's aggregate slice (the
// clone of the memoized answer), and a cached Prepare allocates nothing —
// the exact text is found without lexing, whether it is the normalized
// spelling or a respelling aliased on its second use.
func TestCachedQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	eng, _ := newSalesEngine(t, 20000)
	for _, sql := range []string{
		"SELECT AVG(ss_sales_price) FROM store_sales WHERE ss_sold_date_sk BETWEEN 200 AND 600",
		"select avg(ss_sales_price) from store_sales where ss_sold_date_sk between 200.0 and 600",
	} {
		for i := 0; i < 2; i++ { // the second use promotes a respelling
			if _, err := eng.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := eng.Query(sql); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("cached Query(%q) = %v allocs/op, want <= 2", sql, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := eng.Prepare(sql); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("cached Prepare(%q) = %v allocs/op, want 0", sql, n)
		}
	}
}

// TestPlanCacheAliasSharesEntry: a respelling of a cached shape is aliased
// to the shape's entry on its first lookup that hits, so both texts share
// one plan and one memoized result, and the alias is not counted as a plan.
func TestPlanCacheAliasSharesEntry(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	respelled := "select  avg(ss_sales_price) from store_sales where ss_sold_date_sk between 200.0 and 600 ;"
	canon := sqlparse.Normalize(respelled) // the key itself: never aliased
	want, err := eng.Query(canon)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := eng.Query(respelled)
		if err != nil {
			t.Fatal(err)
		}
		if got.Aggregates[0].Value != want.Aggregates[0].Value {
			t.Fatalf("respelling answered %v, want %v", got.Aggregates[0].Value, want.Aggregates[0].Value)
		}
	}
	if !dbest.SamePlanCacheEntry(eng, canon, respelled) {
		t.Fatal("respelling is not aliased to the canonical entry")
	}
	st := eng.PlanCacheStats()
	if st.Hits != 3 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 3 hits, 1 miss, 1 entry", st)
	}
	if keys := dbest.PlanCacheKeys(eng); keys != 2 {
		t.Fatalf("cache holds %d keys, want the shape plus one alias", keys)
	}
	p1, err := eng.Prepare(canon)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.Prepare(respelled)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("the two spellings resolved to different plans")
	}
}

// TestPlanCacheOneShotAddsNoKey: a text seen once adds only its normalized
// shape; aliasing waits for a second sighting, so one-shot SQL (fresh
// literals on every query) never pays for an alias.
func TestPlanCacheOneShotAddsNoKey(t *testing.T) {
	eng, _ := newSalesEngine(t, 20000)
	for i := 0; i < 5; i++ {
		sql := fmt.Sprintf("select avg(ss_sales_price) from store_sales where ss_sold_date_sk between %d and 600", 100+i)
		if _, err := eng.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.PlanCacheStats()
	if st.Misses != 5 || st.Hits != 0 || st.Entries != 5 {
		t.Fatalf("stats = %+v, want 5 misses, 5 entries", st)
	}
	if keys := dbest.PlanCacheKeys(eng); keys != 5 {
		t.Fatalf("cache holds %d keys after 5 one-shot texts, want 5 (no aliases)", keys)
	}
}

// TestPlanCacheAliasCap: aliases are bounded by the cache capacity. Many
// respellings of one shape stop aliasing at the cap — they neither grow the
// maps past it nor trigger a capacity reset — and still hit.
func TestPlanCacheAliasCap(t *testing.T) {
	const capacity = 4
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 5000, Seed: 1})
	eng := dbest.NewWithPlanCache(capacity)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		// Each respelling differs only in whitespace: one shape.
		sql := "SELECT COUNT(ss_sales_price) FROM store_sales" + strings.Repeat(" ", i+1) +
			"WHERE ss_sales_price BETWEEN 0 AND 1000"
		for j := 0; j < 2; j++ {
			if _, err := eng.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := eng.PlanCacheStats()
	if st.Entries != 1 || st.Resets != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want 1 entry and no resets", st)
	}
	if st.Misses != 1 || st.Hits != 2*n-1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, 2*n-1)
	}
	if keys := dbest.PlanCacheKeys(eng); keys != 1+capacity {
		t.Fatalf("cache holds %d keys, want the shape plus %d aliases", keys, capacity)
	}
}

// TestPlanCacheAliasGenerationBump: an aliased raw text follows its entry's
// generation check, so after a retrain it answers from the new models and
// never from the old generation's memoized result.
func TestPlanCacheAliasGenerationBump(t *testing.T) {
	xs := make([]float64, 2000)
	ys := make([]float64, len(xs))
	for i := range xs {
		xs[i] = float64(i % 1000)
		ys[i] = 2 * xs[i]
	}
	tb := dbest.NewTable("gen")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	eng := dbest.New(nil)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	train := func(scale float64) {
		t.Helper()
		if _, err := eng.CreateModel(context.Background(), &dbest.ModelSpec{
			Table: "gen", XCols: []string{"x"}, YCol: "y",
			SampleSize: 500, Seed: 1, Scale: scale,
		}); err != nil {
			t.Fatal(err)
		}
	}
	query := func(sql string) float64 {
		t.Helper()
		res, err := eng.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != "model" {
			t.Fatalf("source = %q, want model", res.Source)
		}
		return res.Aggregates[0].Value
	}
	const raw = "select sum(y) from gen where x between 200 and 800"
	train(1)
	before := query(raw)
	if again := query(raw); again != before { // aliased here
		t.Fatalf("repeat answered %v, want %v", again, before)
	}
	if keys := dbest.PlanCacheKeys(eng); keys != 2 {
		t.Fatalf("cache holds %d keys, want the shape plus its alias", keys)
	}
	train(3) // new generation: scale triples every SUM
	after := query(raw)
	if ratio := after / before; ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("after retrain the aliased text answered %v (%.2fx the old %v), want ~3x", after, ratio, before)
	}
	if keys := dbest.PlanCacheKeys(eng); keys != 1 {
		t.Fatalf("cache holds %d keys after the wipe, want only the re-planned shape", keys)
	}
	if again := query(raw); again != after {
		t.Fatalf("re-aliased repeat answered %v, want %v", again, after)
	}
}

// TestPlanCacheAliasConcurrent: concurrent readers promoting the same and
// different respellings of one shape, past the alias cap, still record
// exactly one hit or miss per lookup and never grow the maps past the cap.
func TestPlanCacheAliasConcurrent(t *testing.T) {
	const capacity, readers, spellings, rounds = 4, 4, 12, 50
	tb := datagen.StoreSales(&datagen.StoreSalesOptions{Rows: 5000, Seed: 1})
	eng := dbest.NewWithPlanCache(capacity)
	if err := eng.RegisterTable(tb); err != nil {
		t.Fatal(err)
	}
	sqls := make([]string, spellings)
	for i := range sqls {
		sqls[i] = "SELECT COUNT(ss_sales_price) FROM store_sales" + strings.Repeat(" ", i+1) +
			"WHERE ss_sales_price BETWEEN 0 AND 1000"
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, err := eng.Query(sqls[(r+i)%spellings]); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	st := eng.PlanCacheStats()
	if st.Hits+st.Misses != readers*rounds {
		t.Fatalf("stats = %+v: %d lookups recorded, want %d", st, st.Hits+st.Misses, readers*rounds)
	}
	if st.Entries != 1 || st.Resets != 0 {
		t.Fatalf("stats = %+v, want 1 entry and no resets", st)
	}
	if keys := dbest.PlanCacheKeys(eng); keys > 1+capacity {
		t.Fatalf("cache holds %d keys, want at most the shape plus %d aliases", keys, capacity)
	}
}
