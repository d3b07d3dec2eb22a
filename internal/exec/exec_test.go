package exec

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"dbest/internal/core"
	"dbest/internal/exact"
	"dbest/internal/shard"
	"dbest/internal/sqlparse"
	"dbest/internal/table"
)

// resolver is a TableResolver over a fixed map, standing in for the engine.
type resolver map[string]*table.Table

func (r resolver) Table(name string) *table.Table { return r[name] }

func linearTable(t *testing.T, n int) *table.Table {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = 3*xs[i] + 10*rng.NormFloat64()
	}
	tb := table.New("lin")
	tb.AddFloatColumn("x", xs)
	tb.AddFloatColumn("y", ys)
	return tb
}

func trainLinear(t *testing.T, tb *table.Table) *core.ModelSet {
	t.Helper()
	ms, err := core.Train(tb, []string{"x"}, "y", &core.TrainConfig{SampleSize: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

func TestModelPlanRun(t *testing.T) {
	tb := linearTable(t, 20000)
	ms := trainLinear(t, tb)
	op := NewModelEval("AVG(y)", exact.Avg, ms, []float64{5000}, []float64{10000}, false, 0)
	plan := NewPlan(PathModel, "", NewProject(PathModel, []AggOperator{op}, nil))

	res, err := plan.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "model" || len(res.Aggregates) != 1 {
		t.Fatalf("result = %+v", res)
	}
	// y = 3x + noise, so AVG(y) over x in [5000, 10000] ≈ 22500.
	if got := res.Aggregates[0].Value; math.Abs(got-22500) > 1500 {
		t.Fatalf("AVG(y) = %v, want ≈ 22500", got)
	}
	if keys := plan.ModelKeys(); len(keys) != 1 || keys[0] != ms.Key() {
		t.Fatalf("model keys = %v", keys)
	}
	tree := plan.Render()
	for _, want := range []string{"Project [model]", "ModelEval AVG(y)", "range=[5000,10000]"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

func TestModelPlanSpanOverride(t *testing.T) {
	tb := linearTable(t, 20000)
	ms := trainLinear(t, tb)
	op := NewModelEval("COUNT(y)", exact.Count, ms, []float64{0}, []float64{1000}, false, 0)
	plan := NewPlan(PathModel, "", NewProject(PathModel, []AggOperator{op}, nil))

	res, err := plan.Run(&Env{Span: &Span{Lb: 0, Ub: 9999}})
	if err != nil {
		t.Fatal(err)
	}
	// The override widens the predicate to half the table: ≈ 10000 rows.
	if got := res.Aggregates[0].Value; math.Abs(got-10000) > 1200 {
		t.Fatalf("COUNT with span override = %v, want ≈ 10000", got)
	}
}

func TestExactPlanRunAndRender(t *testing.T) {
	tb := linearTable(t, 1000)
	q, err := sqlparse.Parse("SELECT COUNT(y), AVG(x) FROM lin WHERE x BETWEEN 0 AND 499")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(&Env{Tables: resolver{"lin": tb}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != "exact" || len(res.Aggregates) != 2 {
		t.Fatalf("result = %+v", res)
	}
	if got := res.Aggregates[0].Value; got != 500 {
		t.Fatalf("COUNT = %v, want 500", got)
	}
	if got := res.Aggregates[1].Value; math.Abs(got-249.5) > 1e-9 {
		t.Fatalf("AVG(x) = %v, want 249.5", got)
	}
	tree := plan.Render()
	for _, want := range []string{"Project [exact]", "ExactScan COUNT(y)", "ExactScan AVG(x)", "TableScan lin"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
	if plan.ModelKeys() != nil {
		t.Fatalf("exact plan has model keys: %v", plan.ModelKeys())
	}
}

func TestExactPlanSpanOverride(t *testing.T) {
	tb := linearTable(t, 1000)
	q, err := sqlparse.Parse("SELECT COUNT(y) FROM lin WHERE x BETWEEN 0 AND 99")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Run(&Env{Tables: resolver{"lin": tb}, Span: &Span{Lb: 0, Ub: 249}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Aggregates[0].Value; got != 250 {
		t.Fatalf("COUNT with span override = %v, want 250", got)
	}
}

func TestExactPlanUnregisteredTable(t *testing.T) {
	q, err := sqlparse.Parse("SELECT COUNT(y) FROM nosuch WHERE x BETWEEN 0 AND 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Run(&Env{Tables: resolver{}}); err == nil ||
		!strings.Contains(err.Error(), `table "nosuch" is not registered`) {
		t.Fatalf("err = %v, want unregistered-table error", err)
	}
}

func TestExactPlanJoinRender(t *testing.T) {
	q, err := sqlparse.Parse("SELECT COUNT(*) FROM a JOIN b ON a.k = b.k WHERE x BETWEEN 0 AND 1")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := NewExactPlan(q, "no model")
	if err != nil {
		t.Fatal(err)
	}
	tree := plan.Render()
	for _, want := range []string{"JoinEval on a.k = b.k", "TableScan a", "TableScan b"} {
		if !strings.Contains(tree, want) {
			t.Fatalf("tree missing %q:\n%s", want, tree)
		}
	}
}

// TestShardMergePercentileMatchesClosedForm is the differential check for
// the grid mass behind sharded PERCENTILE: over random spans and points on
// a 4-shard ensemble, the merged quantile must sit where the closed-form
// pooled CDF Σᵢ Nᵢ·Dᵢ.Mass(lb, x) reaches the same mass as at the
// closed-form quantile, within 1e-8 relative to the selected rows.
func TestShardMergePercentileMatchesClosedForm(t *testing.T) {
	const bound = 1e-8
	tb := linearTable(t, 20000)
	sets, err := core.TrainSharded(tb, "x", "y", 4, &core.TrainConfig{SampleSize: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	massLE := func(lb, x float64) float64 {
		total := 0.0
		for _, ms := range sets {
			total += ms.Uni.N * ms.Uni.D.Mass(lb, x)
		}
		return total
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		lb := rng.Float64() * 18000
		ub := lb + 500 + rng.Float64()*(19999-lb)
		p := rng.Float64()
		op := NewShardMerge("PERCENTILE(x)", exact.Percentile, sets, lb, ub, true, p)
		got, err := op.Eval(&Env{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		sel := massLE(lb, ub)
		want, ok := shard.Quantile(p, lb, ub, func(x float64) float64 { return massLE(lb, x) })
		if !ok {
			t.Fatalf("[%g,%g]: closed-form quantile undefined", lb, ub)
		}
		if d := math.Abs(massLE(lb, got.Value)-massLE(lb, want)) / sel; d > bound {
			t.Errorf("PERCENTILE(%.3f) [%g,%g] = %.10g, closed form %.10g (mass differs by %.3g of the selection)",
				p, lb, ub, got.Value, want, d)
		}
	}
}
