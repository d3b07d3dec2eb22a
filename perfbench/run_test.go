package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// tinySizes shrinks a run to a 20k-row table so every workload runs end to
// end, traced replay included, in about a second.
var tinySizes = sizes{
	Rows: 20_000, UniSample: 2_000, ShardSample: 500, CheckSize: 60,
	SetupReps: 3, Rounds: 2, FreshWarmup: 20, TracedOpsCap: 300,
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// readBenchmarkJSON reads the repository's BENCHMARK.json and checks that
// it declares exactly the metrics the result line carries, in order.
func readBenchmarkJSON(t *testing.T) (b struct {
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []declaredMetric
		names    []string
	}{{b.EndToEnd, endToEndNames}, {b.PerLayer, perLayerNames}} {
		if len(c.declared) != len(c.names) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the result line carries %d", len(c.declared), len(c.names))
		}
		for i, d := range c.declared {
			if d.Name != c.names[i] {
				t.Errorf("BENCHMARK.json metric %d is %s, the result line's is %s", i, d.Name, c.names[i])
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("BENCHMARK.json workload %d is %s, want %s", i, w.Name, workloads[i].Name)
		}
	}
	return b
}

func TestTinyRunOfEachWorkload(t *testing.T) {
	bench := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			sz := tinySizes
			dir := t.TempDir()
			rep, err := run(w, &sz, 3, 2_000, true, dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range rep.SelfChecks {
				if !c.OK {
					t.Errorf("self-check %q failed: %s", c.Name, c.Detail)
				}
			}
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("run not correct: %d of %d failed: %v", rep.Failed, rep.Attempted, rep.Failures)
			}
			for _, set := range []struct {
				declared []declaredMetric
				got      map[string]metric
			}{{bench.EndToEnd, rep.EndToEnd}, {bench.PerLayer, rep.PerLayer}} {
				for _, d := range set.declared {
					m, ok := set.got[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (present %v), BENCHMARK.json unit %q", d.Name, m, ok, d.Unit)
					}
				}
			}
			for _, n := range endToEndNames {
				if rep.EndToEnd[n].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, rep.EndToEnd[n].Value)
				}
			}
			if fi, err := os.Stat(rep.SpansFile); err != nil || fi.Size() == 0 {
				t.Errorf("spans file %q: %v", rep.SpansFile, err)
			}
		})
	}
}

func TestSameSeedSameSequence(t *testing.T) {
	sz := tinySizes
	tb := newTable(&sz)
	w := findWorkload("mixed-ingest")
	env, err := newGenEnv(w, &sz, tb, 5)
	if err != nil {
		t.Fatal(err)
	}
	a, b := newGenerator(env, streamSeed(5, 0)), newGenerator(env, streamSeed(5, 0))
	other := newGenerator(env, streamSeed(5, 1))
	differs := false
	for i := 0; i < 500; i++ {
		x, y, z := a.next(), b.next(), other.next()
		if x.kind != y.kind || x.sql != y.sql || len(x.rows) != len(y.rows) {
			t.Fatalf("op %d differs for one seed: %+v vs %+v", i, x, y)
		}
		differs = differs || x.sql != z.sql
	}
	if !differs {
		t.Fatal("two clients replay the same sequence")
	}
}
