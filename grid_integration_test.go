package dbest_test

import (
	"strings"
	"testing"
	"time"

	"dbest"
)

// Engine-level grid lifecycle tests: the evaluation grid must survive gob
// persistence and be rebuilt by the background refresher on retrain.

// explainKernel returns the kernel= tag of the plan for sql.
func explainKernel(t *testing.T, eng *dbest.Engine, sql string) string {
	t.Helper()
	plan, err := eng.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.Index(plan.Tree, "kernel=")
	if i < 0 {
		t.Fatalf("plan has no kernel tag:\n%s", plan.Tree)
	}
	rest := plan.Tree[i+len("kernel="):]
	if j := strings.IndexAny(rest, " \n"); j >= 0 {
		rest = rest[:j]
	}
	return rest
}

// queryGridHits runs sql and returns how far the grid-hit counter moved.
// The counter is process-wide, so the delta is only meaningful because
// tests in one binary run sequentially.
func queryGridHits(t *testing.T, eng *dbest.Engine, sql string) uint64 {
	t.Helper()
	before := eng.EvalKernelStats()
	res, err := eng.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" {
		t.Fatalf("source = %q, want model", res.Source)
	}
	after := eng.EvalKernelStats()
	return after.GridHits - before.GridHits
}

// TestGridSurvivesPersistence saves a grid-bearing model with SaveModels
// and reloads it into a fresh engine: the reloaded model must keep serving
// from the grid with bit-identical answers.
func TestGridSurvivesPersistence(t *testing.T) {
	eng := newStreamEngine(t, 4000)
	sumSQL := "SELECT SUM(y) FROM stream WHERE x BETWEEN 100 AND 900"
	if k := explainKernel(t, eng, sumSQL); k != "grid" {
		t.Fatalf("pre-save kernel = %q, want grid", k)
	}
	want, err := eng.Query(sumSQL)
	if err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/models.gob"
	if err := eng.SaveModels(path); err != nil {
		t.Fatal(err)
	}
	eng2 := dbest.New(nil)
	if err := eng2.RegisterTable(streamTable(4000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := eng2.LoadModels(path); err != nil {
		t.Fatal(err)
	}
	if k := explainKernel(t, eng2, sumSQL); k != "grid" {
		t.Fatalf("reloaded kernel = %q, want grid", k)
	}
	if hits := queryGridHits(t, eng2, sumSQL); hits == 0 {
		t.Fatal("reloaded query moved no grid hits")
	}
	got, err := eng2.Query(sumSQL)
	if err != nil {
		t.Fatal(err)
	}
	if got.Aggregates[0].Value != want.Aggregates[0].Value {
		t.Fatalf("reloaded SUM = %g, original %g — grid tables changed across gob",
			got.Aggregates[0].Value, want.Aggregates[0].Value)
	}
}

// TestRefresherRebuildsGrid verifies a background retrain produces a model
// that still serves from a grid — the rebuild rides the trainPair funnel.
func TestRefresherRebuildsGrid(t *testing.T) {
	const base = 4000
	eng := newStreamEngine(t, base)
	defer eng.StopRefresher()
	sumSQL := "SELECT SUM(y) FROM stream WHERE x BETWEEN 100 AND 900"
	if k := explainKernel(t, eng, sumSQL); k != "grid" {
		t.Fatalf("pre-refresh kernel = %q, want grid", k)
	}

	if err := eng.StartRefresher(&dbest.RefreshOptions{
		Interval:  5 * time.Millisecond,
		Threshold: 0.5,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Append("stream", streamRows(base, 17)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for eng.RefreshStats().Refreshes == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background refresher never retrained; staleness: %+v", eng.ModelStaleness())
		}
		time.Sleep(2 * time.Millisecond)
	}
	eng.StopRefresher()

	if k := explainKernel(t, eng, sumSQL); k != "grid" {
		t.Fatalf("post-refresh kernel = %q, want grid", k)
	}
	if hits := queryGridHits(t, eng, sumSQL); hits == 0 {
		t.Fatal("post-refresh query moved no grid hits")
	}
}
