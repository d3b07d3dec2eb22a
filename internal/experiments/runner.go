package experiments

import (
	"fmt"
	"sync"
	"time"

	"dbest/internal/core"
	"dbest/internal/datagen"
	"dbest/internal/exact"
	"dbest/internal/table"
	"dbest/internal/workload"
)

// afOrder is the x-axis order of the per-AF figures (Figs. 2, 3, 5, 6).
var afOrder = []exact.AggFunc{
	exact.Count, exact.Percentile, exact.Variance,
	exact.StdDev, exact.Sum, exact.Avg,
}

// csaOrder is the COUNT/SUM/AVG(+OVERALL) order of the comparison figures.
var csaOrder = []exact.AggFunc{exact.Count, exact.Sum, exact.Avg}

func afLabels(afs []exact.AggFunc, overall bool) []string {
	out := make([]string, 0, len(afs)+1)
	for _, af := range afs {
		out = append(out, af.String())
	}
	if overall {
		out = append(out, "OVERALL")
	}
	return out
}

// dataset caching: generation is deterministic per (kind, rows, seed), and
// several figures share the same tables.
var (
	dsMu    sync.Mutex
	dsCache = map[string]*table.Table{}
)

func cached(key string, gen func() *table.Table) *table.Table {
	dsMu.Lock()
	defer dsMu.Unlock()
	if tb, ok := dsCache[key]; ok {
		return tb
	}
	tb := gen()
	dsCache[key] = tb
	return tb
}

func storeSales(rows int, seed int64) *table.Table {
	return cached(fmt.Sprintf("ss/%d/%d", rows, seed), func() *table.Table {
		return datagen.StoreSales(&datagen.StoreSalesOptions{Rows: rows, Seed: seed})
	})
}

func ccpp(rows int, seed int64) *table.Table {
	return cached(fmt.Sprintf("ccpp/%d/%d", rows, seed), func() *table.Table {
		base := datagen.CCPP(0, seed)
		if rows <= base.NumRows() {
			return base
		}
		return datagen.ScaleUp(base, rows, 0.005, seed)
	})
}

func beijing(rows int, seed int64) *table.Table {
	return cached(fmt.Sprintf("bj/%d/%d", rows, seed), func() *table.Table {
		base := datagen.Beijing(0, seed)
		if rows <= base.NumRows() {
			return base
		}
		return datagen.ScaleUp(base, rows, 0.005, seed)
	})
}

// batch aggregates per-AF relative errors and response times.
type batch struct {
	errs  map[exact.AggFunc][]float64
	times map[exact.AggFunc]time.Duration
	n     map[exact.AggFunc]int
}

func newBatch() *batch {
	return &batch{
		errs:  make(map[exact.AggFunc][]float64),
		times: make(map[exact.AggFunc]time.Duration),
		n:     make(map[exact.AggFunc]int),
	}
}

func (b *batch) add(af exact.AggFunc, relErr float64, d time.Duration) {
	b.errs[af] = append(b.errs[af], relErr)
	b.times[af] += d
	b.n[af]++
}

// meanErr returns the mean relative error for one AF.
func (b *batch) meanErr(af exact.AggFunc) float64 {
	return workload.Mean(b.errs[af])
}

// overallErr averages across all recorded errors.
func (b *batch) overallErr() float64 {
	var all []float64
	for _, es := range b.errs {
		all = append(all, es...)
	}
	return workload.Mean(all)
}

// meanTime returns the mean per-query response time for one AF, in seconds.
func (b *batch) meanTime(af exact.AggFunc) float64 {
	if b.n[af] == 0 {
		return 0
	}
	return b.times[af].Seconds() / float64(b.n[af])
}

// overallTime averages response time across all queries.
func (b *batch) overallTime() float64 {
	var total time.Duration
	n := 0
	for af, d := range b.times {
		total += d
		n += b.n[af]
	}
	if n == 0 {
		return 0
	}
	return total.Seconds() / float64(n)
}

// answerer abstracts "a system that answers aggregate requests" so one
// evaluation loop serves DBEst models, baselines and exact engines.
type answerer func(q workload.Query) (float64, time.Duration, error)

// modelAnswerer evaluates queries on a trained model set.
func modelAnswerer(ms *core.ModelSet, workers int) answerer {
	return func(q workload.Query) (float64, time.Duration, error) {
		yIsX := q.YCol == q.XCol
		t0 := time.Now()
		ans, err := ms.EvaluateUni(q.AF, q.Lb, q.Ub, yIsX,
			&core.EvalOptions{Workers: workers, P: q.P})
		d := time.Since(t0)
		if err != nil {
			return 0, d, err
		}
		return ans.Value, d, nil
	}
}

// requestAnswerer evaluates queries through an exact.Request-shaped backend
// (baselines, exact engine).
func requestAnswerer(run func(exact.Request) (*exact.Result, error)) answerer {
	return func(q workload.Query) (float64, time.Duration, error) {
		t0 := time.Now()
		r, err := run(q.Request(""))
		d := time.Since(t0)
		if err != nil {
			return 0, d, err
		}
		return r.Value, d, nil
	}
}

// minSupport returns the smallest ground-truth selection size a random
// query must hit to enter the error average: 0.05% of the table, floored
// at 30 rows. Ranges with almost no support have no meaningful relative
// error for any AQP system (QuickR found 25% of TPC-DS queries
// unsupportable for this reason, §2.3), so the harness filters them like
// the paper's methodology does.
func minSupport(rows int) float64 {
	if s := float64(rows) / 2000; s > 30 {
		return s
	}
	return 30
}

// evalBatch runs the queries through ans, comparing with exact ground truth
// over truthTb. Queries whose ground truth or answer fails (empty or
// near-empty selection at tiny selectivity) are skipped, mirroring the
// paper's random-query methodology.
func evalBatch(truthTb *table.Table, qs []workload.Query, ans answerer) (*batch, error) {
	b := newBatch()
	failures := 0
	for _, q := range qs {
		support, err := exact.Query(truthTb, exact.Request{
			AF: exact.Count, Y: q.XCol,
			Predicates: []exact.Range{{Column: q.XCol, Lb: q.Lb, Ub: q.Ub}},
		})
		if err != nil || support.Value < minSupport(truthTb.NumRows()) {
			continue
		}
		want, err := exact.Query(truthTb, q.Request(""))
		if err != nil {
			continue // empty selection: no defined ground truth
		}
		got, d, err := ans(q)
		if err != nil {
			failures++
			continue
		}
		b.add(q.AF, workload.RelErr(got, want.Value), d)
	}
	total := 0
	for _, n := range b.n {
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("experiments: all %d queries failed (%d answerer failures)", len(qs), failures)
	}
	return b, nil
}
