package experiments

import (
	"fmt"

	"dbest/internal/baseline"
	"dbest/internal/core"
	"dbest/internal/table"
	"dbest/internal/workload"
)

func init() {
	register("fig7", "CCPP relative error, 10k samples: DBEst vs BlinkDB vs VerdictDB (§4.3)", fig7)
	register("fig8", "CCPP relative error, 100k samples (§4.3)", fig8)
	register("fig9", "CCPP response time: DBEst vs VerdictDB (§4.3)", fig9)
	register("fig10", "TPC-DS relative error: DBEst vs VerdictDB (§4.4.1)", fig10)
	register("fig11", "TPC-DS response time: DBEst vs VerdictDB (§4.4.2)", fig11)
	register("fig12", "TPC-DS overheads: DBEst vs VerdictDB (§4.4.3)", fig12)
	register("fig13", "Beijing PM2.5 relative error: DBEst vs VerdictDB (§4.5)", fig13)
	register("fig14", "Beijing PM2.5 response time: DBEst vs VerdictDB (§4.5)", fig14)
	register("fig26", "MonetDB-over-samples vs DBEst on CCPP (Appendix C)", fig26)
}

// columnPairs for each comparison workload, per §4.1: CCPP uses [T, EP],
// [AP, EP], [RH, EP]; Beijing uses [DEWP/PRES/TEMP/IWS → PM25]; the TPC-DS
// multi-column-pair analysis uses pairs from store_sales.
var (
	ccppPairs = [][2]string{{"T", "EP"}, {"AP", "EP"}, {"RH", "EP"}}

	beijingPairs = [][2]string{
		{"DEWP", "PM25"}, {"PRES", "PM25"}, {"TEMP", "PM25"}, {"IWS", "PM25"},
	}

	tpcdsPairs = [][2]string{
		{"ss_list_price", "ss_wholesale_cost"},
		{"ss_wholesale_cost", "ss_list_price"},
		{"ss_sold_date_sk", "ss_sales_price"},
		{"ss_list_price", "ss_net_profit"},
		{"ss_quantity", "ss_ext_discount_amt"},
		{"ss_sales_price", "ss_net_profit"},
	}
)

// compareSystems runs the COUNT/SUM/AVG comparison of §4.3–4.5 for one
// sample size: DBEst models vs sample-based baselines over all column
// pairs, with per-AF ranges drawn at the paper's low selectivities.
type sysBatch struct {
	name string
	b    *batch
}

func compareSystems(tb *table.Table, pairs [][2]string, sampleSize int, cfg Config, withBlink bool, rangeFracs []float64) ([]sysBatch, error) {
	dbest := newBatch()
	verdict := newBatch()
	blink := newBatch()
	for _, pair := range pairs {
		ms, err := core.Train(tb, []string{pair[0]}, pair[1], &core.TrainConfig{
			SampleSize: sampleSize, Seed: cfg.Seed, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		v, err := baseline.NewVerdictSim(tb, sampleSize, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		var bl *baseline.BlinkSim
		if withBlink {
			// BlinkDB stratifies on a coarsened version of the predicate
			// attribute; emulate with a quantile-bucket stratum column.
			strat, err := stratumColumn(tb, pair[0], 16)
			if err != nil {
				return nil, err
			}
			bl, err = baseline.NewBlinkSim(strat, "stratum", sampleSize, 16, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
		}
		for _, frac := range rangeFracs {
			qs, err := workload.Generate(tb, workload.Spec{
				XCol: pair[0], YCol: pair[1], AFs: csaOrder,
				RangeFrac: frac, PerAF: cfg.PerAF, Seed: cfg.Seed + int64(frac*1e4),
			})
			if err != nil {
				return nil, err
			}
			mb, err := evalBatch(tb, qs, modelAnswerer(ms, 1))
			if err != nil {
				return nil, err
			}
			merge(dbest, mb)
			vb, err := evalBatch(tb, qs, requestAnswerer(v.Query))
			if err != nil {
				return nil, err
			}
			merge(verdict, vb)
			if bl != nil {
				bb, err := evalBatch(tb, qs, requestAnswerer(bl.Query))
				if err != nil {
					return nil, err
				}
				merge(blink, bb)
			}
		}
	}
	out := []sysBatch{{"DBEst", dbest}}
	if withBlink {
		out = append(out, sysBatch{"BlinkSim", blink})
	}
	out = append(out, sysBatch{"VerdictSim", verdict})
	return out, nil
}

// stratumColumn clones tb with an added Int64 "stratum" column bucketing
// col into q quantile buckets.
func stratumColumn(tb *table.Table, col string, q int) (*table.Table, error) {
	xs, err := tb.Floats(col)
	if err != nil {
		return nil, err
	}
	lo, hi := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	strata := make([]int64, len(xs))
	if hi > lo {
		for i, v := range xs {
			s := int64((v - lo) / (hi - lo) * float64(q))
			if s >= int64(q) {
				s = int64(q) - 1
			}
			strata[i] = s
		}
	}
	// Rebuild through the API so the name index is consistent; column data
	// slices are shared, not copied.
	built := table.New(tb.Name)
	for _, c := range tb.Columns {
		switch c.Type {
		case table.Float64:
			built.AddFloatColumn(c.Name, c.Floats)
		case table.Int64:
			built.AddIntColumn(c.Name, c.Ints)
		case table.String:
			built.AddStringColumn(c.Name, c.Strings)
		}
	}
	built.AddIntColumn("stratum", strata)
	return built, nil
}

func merge(dst, src *batch) {
	for af, es := range src.errs {
		dst.errs[af] = append(dst.errs[af], es...)
	}
	for af, d := range src.times {
		dst.times[af] += d
	}
	for af, n := range src.n {
		dst.n[af] += n
	}
}

// errorFigure renders per-AF mean relative error (+OVERALL) per system.
func errorFigure(id, title string, systems []sysBatch) *FigureResult {
	fr := &FigureResult{
		ID: id, Title: title,
		XLabel: "aggregate function", YLabel: "relative error (%)",
		Labels: afLabels(csaOrder, true),
	}
	for _, s := range systems {
		vals := make([]float64, 0, len(csaOrder)+1)
		for _, af := range csaOrder {
			vals = append(vals, pct(s.b.meanErr(af)))
		}
		vals = append(vals, pct(s.b.overallErr()))
		fr.AddSeries(s.name, vals...)
	}
	return fr
}

// lowSelectivity matches §4.3: "stress-testing with low-selectivity query
// ranges (0.1%, 0.5% to 1%)".
var lowSelectivity = []float64{0.001, 0.005, 0.01}

func fig7(cfg Config) (*FigureResult, error) {
	tb := ccpp(cfg.Rows, cfg.Seed)
	sys, err := compareSystems(tb, ccppPairs, cfg.SampleSizes[0], cfg, true, lowSelectivity)
	if err != nil {
		return nil, err
	}
	fr := errorFigure("fig7", fmt.Sprintf("Relative Error: CCPP Dataset (%s sample)", sampleLabel(cfg.SampleSizes[0])), sys)
	fr.Note("paper: DBEst overall 3.5%% vs >10%% for the sample-based engines at 10k")
	return fr, nil
}

func fig8(cfg Config) (*FigureResult, error) {
	tb := ccpp(cfg.Rows, cfg.Seed)
	ss := cfg.SampleSizes[len(cfg.SampleSizes)-1]
	sys, err := compareSystems(tb, ccppPairs, ss, cfg, true, lowSelectivity)
	if err != nil {
		return nil, err
	}
	fr := errorFigure("fig8", fmt.Sprintf("Relative Error: CCPP Dataset (%s sample)", sampleLabel(ss)), sys)
	fr.Note("paper: DBEst 1.9%% vs VerdictDB 3.5%% at 100k")
	return fr, nil
}

func fig9(cfg Config) (*FigureResult, error) {
	tb := ccpp(cfg.Rows, cfg.Seed)
	fr := &FigureResult{
		ID: "fig9", Title: "Response Time for CCPP Dataset",
		XLabel: "aggregate function", YLabel: "response time (s)",
		Labels: afLabels(csaOrder, true),
	}
	for _, ss := range cfg.SampleSizes {
		sys, err := compareSystems(tb, ccppPairs, ss, cfg, false, lowSelectivity)
		if err != nil {
			return nil, err
		}
		for _, s := range sys {
			vals := make([]float64, 0, len(csaOrder)+1)
			for _, af := range csaOrder {
				vals = append(vals, s.b.meanTime(af))
			}
			vals = append(vals, s.b.overallTime())
			fr.AddSeries(fmt.Sprintf("%s_%s", s.name, sampleLabel(ss)), vals...)
		}
	}
	fr.Note("paper: DBEst 0.02s (10k) / 0.27s (100k); VerdictDB 0.6-0.9s on 12 cores")
	return fr, nil
}

func tpcdsCompare(cfg Config) (map[int][]sysBatch, error) {
	tb := storeSales(cfg.Rows, cfg.Seed)
	out := make(map[int][]sysBatch, len(cfg.SampleSizes))
	for _, ss := range cfg.SampleSizes {
		sys, err := compareSystems(tb, tpcdsPairs, ss, cfg, false, []float64{0.01, 0.05})
		if err != nil {
			return nil, err
		}
		out[ss] = sys
	}
	return out, nil
}

func fig10(cfg Config) (*FigureResult, error) {
	bySS, err := tpcdsCompare(cfg)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "fig10", Title: "Relative Error: DBEst vs VerdictDB (TPC-DS)",
		XLabel: "aggregate function", YLabel: "relative error (%)",
		Labels: afLabels(csaOrder, true),
	}
	for _, ss := range cfg.SampleSizes {
		for _, s := range bySS[ss] {
			vals := make([]float64, 0, 4)
			for _, af := range csaOrder {
				vals = append(vals, pct(s.b.meanErr(af)))
			}
			vals = append(vals, pct(s.b.overallErr()))
			fr.AddSeries(fmt.Sprintf("%s_%s", s.name, sampleLabel(ss)), vals...)
		}
	}
	fr.Note("paper: DBEst 5.26%% vs VerdictDB >10%% overall at 10k; both excellent at 100k")
	return fr, nil
}

func fig11(cfg Config) (*FigureResult, error) {
	bySS, err := tpcdsCompare(cfg)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "fig11", Title: "Response Time: DBEst vs VerdictDB (TPC-DS)",
		XLabel: "sample size", YLabel: "response time (s)",
	}
	var dbv, vv []float64
	for _, ss := range cfg.SampleSizes {
		fr.Labels = append(fr.Labels, sampleLabel(ss))
		for _, s := range bySS[ss] {
			switch s.name {
			case "DBEst":
				dbv = append(dbv, s.b.overallTime())
			case "VerdictSim":
				vv = append(vv, s.b.overallTime())
			}
		}
	}
	fr.AddSeries("DBEst", dbv...)
	fr.AddSeries("VerdictSim", vv...)
	fr.Note("paper: 0.02s vs 0.33s at 10k; 0.12s vs >0.40s at 100k")
	return fr, nil
}

func fig12(cfg Config) (*FigureResult, error) {
	tb := storeSales(cfg.Rows, cfg.Seed)
	fr := &FigureResult{
		ID: "fig12", Title: "Overheads: DBEst vs VerdictDB (TPC-DS)",
		XLabel: "sample size", YLabel: "seconds / MB",
	}
	var dbSampleT, dbTrainT, vSampleT, dbSpace, vSpace []float64
	for _, ss := range cfg.SampleSizes {
		fr.Labels = append(fr.Labels, sampleLabel(ss))
		// Average over the column pairs, as the paper reports per column pair.
		var st, tt, sp float64
		for _, pair := range tpcdsPairs {
			ms, err := core.Train(tb, []string{pair[0]}, pair[1], &core.TrainConfig{
				SampleSize: ss, Seed: cfg.Seed, Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			st += secs(ms.Stats.SampleTime)
			tt += secs(ms.Stats.TrainTime)
			sp += mb(ms.Stats.ModelBytes)
		}
		n := float64(len(tpcdsPairs))
		dbSampleT = append(dbSampleT, st/n)
		dbTrainT = append(dbTrainT, tt/n)
		dbSpace = append(dbSpace, sp/n)
		v, err := baseline.NewVerdictSim(tb, ss, 1, cfg.Seed)
		if err != nil {
			return nil, err
		}
		vSampleT = append(vSampleT, secs(v.Stats.SampleTime))
		vSpace = append(vSpace, mb(v.Stats.Bytes))
	}
	fr.AddSeries("DBEst sampling (s)", dbSampleT...)
	fr.AddSeries("DBEst training (s)", dbTrainT...)
	fr.AddSeries("VerdictSim sampling (s)", vSampleT...)
	fr.AddSeries("DBEst space (MB)", dbSpace...)
	fr.AddSeries("VerdictSim space (MB)", vSpace...)
	fr.Note("paper: 0.192MB vs 1.7MB at 10k; 1.68MB vs 9.7MB at 100k (5-9x)")
	return fr, nil
}

func beijingCompare(cfg Config) (map[int][]sysBatch, error) {
	tb := beijing(cfg.Rows, cfg.Seed)
	out := make(map[int][]sysBatch, len(cfg.SampleSizes))
	for _, ss := range cfg.SampleSizes {
		sys, err := compareSystems(tb, beijingPairs, ss, cfg, false, []float64{0.01, 0.05, 0.1})
		if err != nil {
			return nil, err
		}
		out[ss] = sys
	}
	return out, nil
}

func fig13(cfg Config) (*FigureResult, error) {
	bySS, err := beijingCompare(cfg)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "fig13", Title: "Accuracy: DBEst vs VerdictDB (Beijing PM2.5)",
		XLabel: "aggregate function", YLabel: "relative error (%)",
		Labels: afLabels(csaOrder, true),
	}
	for _, ss := range cfg.SampleSizes {
		for _, s := range bySS[ss] {
			vals := make([]float64, 0, 4)
			for _, af := range csaOrder {
				vals = append(vals, pct(s.b.meanErr(af)))
			}
			vals = append(vals, pct(s.b.overallErr()))
			fr.AddSeries(fmt.Sprintf("%s_%s", s.name, sampleLabel(ss)), vals...)
		}
	}
	fr.Note("paper: 4.72%% vs 9.57%% at 10k; 1.67%% vs 4.41%% at 100k")
	return fr, nil
}

func fig14(cfg Config) (*FigureResult, error) {
	bySS, err := beijingCompare(cfg)
	if err != nil {
		return nil, err
	}
	fr := &FigureResult{
		ID: "fig14", Title: "Response Time: DBEst vs VerdictDB (Beijing PM2.5)",
		XLabel: "aggregate function", YLabel: "response time (s)",
		Labels: afLabels(csaOrder, true),
	}
	for _, ss := range cfg.SampleSizes {
		for _, s := range bySS[ss] {
			vals := make([]float64, 0, 4)
			for _, af := range csaOrder {
				vals = append(vals, s.b.meanTime(af))
			}
			vals = append(vals, s.b.overallTime())
			fr.AddSeries(fmt.Sprintf("%s_%s", s.name, sampleLabel(ss)), vals...)
		}
	}
	fr.Note("paper: DBEst 0.013s (10k) / 0.23s (100k); VerdictDB 0.38-0.6s")
	return fr, nil
}

// fig26 — Appendix C: DBEst vs an exact engine over uniform samples
// (MonetDB-style) on CCPP.
func fig26(cfg Config) (*FigureResult, error) {
	tb := ccpp(cfg.Rows, cfg.Seed)
	fr := &FigureResult{
		ID: "fig26", Title: "Error vs MonetDB-over-samples: CCPP Workload",
		XLabel: "aggregate function", YLabel: "relative error (%)",
		Labels: afLabels(csaOrder, true),
	}
	for _, ss := range cfg.SampleSizes {
		dbest := newBatch()
		monet := newBatch()
		for _, pair := range ccppPairs {
			ms, err := core.Train(tb, []string{pair[0]}, pair[1], &core.TrainConfig{
				SampleSize: ss, Seed: cfg.Seed, Workers: cfg.Workers,
			})
			if err != nil {
				return nil, err
			}
			se, err := baseline.NewSampleExact(tb, ss, 1, cfg.Seed)
			if err != nil {
				return nil, err
			}
			for _, frac := range lowSelectivity {
				qs, err := workload.Generate(tb, workload.Spec{
					XCol: pair[0], YCol: pair[1], AFs: csaOrder,
					RangeFrac: frac, PerAF: cfg.PerAF, Seed: cfg.Seed,
				})
				if err != nil {
					return nil, err
				}
				mbch, err := evalBatch(tb, qs, modelAnswerer(ms, 1))
				if err != nil {
					return nil, err
				}
				merge(dbest, mbch)
				sb, err := evalBatch(tb, qs, requestAnswerer(se.Query))
				if err != nil {
					return nil, err
				}
				merge(monet, sb)
			}
		}
		for _, s := range []sysBatch{{"DBEst", dbest}, {"MonetDB", monet}} {
			vals := make([]float64, 0, 4)
			for _, af := range csaOrder {
				vals = append(vals, pct(s.b.meanErr(af)))
			}
			vals = append(vals, pct(s.b.overallErr()))
			fr.AddSeries(fmt.Sprintf("%s_%s", s.name, sampleLabel(ss)), vals...)
		}
	}
	fr.Note("paper: DBEst beats MonetDB-over-samples even when the latter has 10x samples")
	return fr, nil
}
