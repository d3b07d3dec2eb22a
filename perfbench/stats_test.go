package main

import (
	"math"
	"strings"
	"testing"

	"dbest"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.01, 1}, {0.10, 1}, {0.11, 2}, {0.50, 5}, {0.51, 6}, {0.95, 10}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{5, 1, 4, 2}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if xs[0] != 5 || xs[3] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestRatioOfNoWorkIsZero(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
}

func TestLatencyPercentilesInMicroseconds(t *testing.T) {
	ns := make([]uint32, 200)
	for i := range ns {
		ns[i] = uint32((200 - i) * 1000) // 200µs down to 1µs, unsorted
	}
	p50, p99 := latencyPercentiles(ns)
	if p50 != 100 || p99 != 198 {
		t.Errorf("p50, p99 = %v, %v µs, want 100, 198", p50, p99)
	}
}

func TestCheckAnswerGate(t *testing.T) {
	ok := func(src string, v float64) *dbest.Result {
		return &dbest.Result{Source: src, Aggregates: []dbest.AggregateResult{{Value: v}}}
	}
	hot := &op{kind: opHot, sql: "q"}
	within := &op{kind: opWithin, sql: "q"}
	sketch := &op{kind: opSketch, sql: sketchSQLs[0]}
	for _, c := range []struct {
		name string
		o    *op
		res  *dbest.Result
		want string // substring of the failure, "" for a pass
	}{
		{"model answer", hot, ok("model", 3), ""},
		{"exact answer to a model shape", hot, ok("exact", 3), "answered from"},
		{"NaN", hot, ok("model", math.NaN()), "non-finite"},
		{"Inf", hot, ok("model", math.Inf(1)), "non-finite"},
		{"no aggregates", hot, &dbest.Result{Source: "model"}, "aggregates"},
		{"routed to model", within, ok("model", 1), ""},
		{"routed to exact", within, ok("exact", 1), ""},
		{"routed to sketch", within, ok("sketch", 1), "answered from"},
		{"sketch", sketch, ok("sketch", 1800), ""},
		{"sketch from model", sketch, ok("model", 1800), "answered from"},
		{"empty TOP list", &op{kind: opSketch, sql: sketchSQLs[1]}, ok("sketch", 0), "TOP"},
	} {
		got := checkAnswer(c.o, c.res, nil)
		if (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: checkAnswer = %q, want failure containing %q", c.name, got, c.want)
		}
	}
}

func TestAccuracyKeepsExactServedAnswersOut(t *testing.T) {
	res := func(src string, v float64, ci [2]float64) *dbest.Result {
		return &dbest.Result{Source: src, Aggregates: []dbest.AggregateResult{{Value: v, CI: ci}}}
	}
	within := &op{kind: opWithin, sql: "q"}
	a := &accuracy{}
	a.record(within, res("model", 110, [2]float64{90, 120}), nil, &truth{value: 100})
	a.record(within, res("exact", 100, [2]float64{}), nil, &truth{value: 100})
	if len(a.relErrs) != 1 || math.Abs(a.relErrs[0]-0.1) > 1e-12 {
		t.Fatalf("relErrs = %v, want only the model answer's 0.1", a.relErrs)
	}
	if a.withCI != 1 || a.covered != 1 || a.exactShare() != 0.5 || a.out.failed != 0 {
		t.Fatalf("withCI %d covered %d exactShare %v failed %d", a.withCI, a.covered, a.exactShare(), a.out.failed)
	}
	a.record(within, res("exact", 101, [2]float64{}), nil, &truth{value: 100})
	if a.out.failed != 1 || len(a.relErrs) != 1 {
		t.Fatalf("a wrong exact-served answer: failed %d, relErrs %v", a.out.failed, a.relErrs)
	}
}
