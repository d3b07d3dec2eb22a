package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dbest"
	"dbest/internal/datagen"
)

// buildCLI compiles the dbest binary once per test run.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "dbest")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	return bin
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	csv := filepath.Join(dir, "ccpp.csv")
	if err := datagen.CCPP(5000, 1).SaveCSV(csv); err != nil {
		t.Fatal(err)
	}

	// Train + one-shot query.
	out, err := exec.Command(bin,
		"-table", "ccpp="+csv,
		"-train", "ccpp:T:EP",
		"-sample", "2000",
		"-query", "SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("cli: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "AVG(EP)") || !strings.Contains(s, "source=model") {
		t.Fatalf("unexpected output:\n%s", s)
	}

	// Save models, reload without the table, query again.
	models := filepath.Join(dir, "models.gob")
	if out, err := exec.Command(bin,
		"-table", "ccpp="+csv, "-train", "ccpp:T:EP", "-sample", "2000",
		"-save", models,
	).CombinedOutput(); err != nil {
		t.Fatalf("save: %v\n%s", err, out)
	}
	if _, err := os.Stat(models); err != nil {
		t.Fatal(err)
	}
	out2, err := exec.Command(bin,
		"-load", models,
		"-query", "SELECT COUNT(EP) FROM ccpp WHERE T BETWEEN 10 AND 20",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("load+query: %v\n%s", err, out2)
	}
	if !strings.Contains(string(out2), "COUNT(EP)") {
		t.Fatalf("unexpected output:\n%s", out2)
	}
}

func TestCLIBadFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	if _, err := exec.Command(bin, "-table", "nope").CombinedOutput(); err == nil {
		t.Fatal("want failure for malformed -table")
	}
	if _, err := exec.Command(bin, "-table", "x=/does/not/exist.csv").CombinedOutput(); err == nil {
		t.Fatal("want failure for missing csv")
	}
}

func TestCutExplain(t *testing.T) {
	cases := []struct {
		in   string
		rest string
		ok   bool
	}{
		{"EXPLAIN SELECT AVG(x) FROM t", "SELECT AVG(x) FROM t", true},
		{"  explain   SELECT 1", "SELECT 1", true},
		{"SELECT AVG(x) FROM t", "SELECT AVG(x) FROM t", false},
		{"EXPLAINSELECT", "EXPLAINSELECT", false},
		{"EXPLAIN", "EXPLAIN", false},
	}
	for _, tc := range cases {
		rest, ok := cutExplain(tc.in)
		if rest != tc.rest || ok != tc.ok {
			t.Errorf("cutExplain(%q) = %q, %v; want %q, %v", tc.in, rest, ok, tc.rest, tc.ok)
		}
	}
}

func TestCLIExplain(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	csv := filepath.Join(dir, "ccpp.csv")
	if err := datagen.CCPP(5000, 1).SaveCSV(csv); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin,
		"-table", "ccpp="+csv,
		"-train", "ccpp:T:EP",
		"-sample", "2000",
		"-query", "EXPLAIN SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("cli: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{"path: model", "Project [model]", "ModelEval AVG(EP)"} {
		if !strings.Contains(s, want) {
			t.Fatalf("explain output missing %q:\n%s", want, s)
		}
	}
}

func TestParseRow(t *testing.T) {
	tb := datagen.CCPP(10, 1) // all-float table
	row, err := parseRow(tb, "1.5, 2, 3.25, 4, 5.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(row) != len(tb.Columns) {
		t.Fatalf("row len = %d, want %d", len(row), len(tb.Columns))
	}
	if row[0] != 1.5 || row[1] != 2.0 {
		t.Fatalf("row = %v", row)
	}
	if _, err := parseRow(tb, "1.5, 2"); err == nil {
		t.Fatal("want arity error")
	}
	if _, err := parseRow(tb, "1.5, x, 3, 4, 5"); err == nil {
		t.Fatal("want parse error for non-numeric value")
	}
}

// The stdin loop accepts APPEND / INGEST / STALENESS statements alongside
// SQL; appended rows show up in exact-path answers immediately.
func TestCLIIngestStatements(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	csv := filepath.Join(dir, "ccpp.csv")
	base := datagen.CCPP(3000, 1)
	if err := base.SaveCSV(csv); err != nil {
		t.Fatal(err)
	}
	batch := filepath.Join(dir, "batch.csv")
	if err := datagen.CCPP(500, 2).SaveCSV(batch); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-table", "ccpp="+csv, "-train", "ccpp:T:EP", "-sample", "1000")
	cmd.Stdin = strings.NewReader(strings.Join([]string{
		"APPEND ccpp 20.0, 40.0, 1010.0, 70.0, 450.0",
		"INGEST ccpp " + batch,
		"STALENESS",
		"SELECT COUNT(*) FROM ccpp WHERE AP BETWEEN 0 AND 100000", // exact path: AP untrained as x
	}, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cli: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"appended 1 row to ccpp (3001 rows)",
		"ingested 500 rows into ccpp (3501 rows)",
		"ccpp|T|EP|: score=",
		"ingested=501/3000",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(s, "3501") {
		t.Fatalf("exact COUNT should see the ingested rows:\n%s", s)
	}
}

// Quoted string values must survive APPEND parsing intact: CSV-style
// double quotes protect commas, and internal whitespace is preserved.
func TestParseRowQuotedStrings(t *testing.T) {
	tb := dbest.NewTable("cities")
	tb.AddStringColumn("name", []string{"seed"})
	tb.AddFloatColumn("pop", []float64{1})

	row, err := parseRow(tb, `"New  York, NY", 8.5`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != "New  York, NY" {
		t.Fatalf("quoted string mangled: %q", row[0])
	}
	if row[1] != 8.5 {
		t.Fatalf("row = %v", row)
	}
	// Single-quote convenience for simple values.
	row, err = parseRow(tb, `'Paris', 2.1`)
	if err != nil {
		t.Fatal(err)
	}
	if row[0] != "Paris" {
		t.Fatalf("single-quoted string = %q", row[0])
	}
}

func TestCutToken(t *testing.T) {
	for _, tc := range []struct{ in, tok, rest string }{
		{"APPEND t 1,2", "APPEND", "t 1,2"},
		{"  APPEND   t   'a  b',2  ", "APPEND", "t   'a  b',2"},
		{"STALENESS", "STALENESS", ""},
		{"", "", ""},
	} {
		tok, rest := cutToken(tc.in)
		if tok != tc.tok || rest != tc.rest {
			t.Errorf("cutToken(%q) = %q, %q; want %q, %q", tc.in, tok, rest, tc.tok, tc.rest)
		}
	}
}

// INGEST must parse the batch against the registered schema: a FLOAT64
// column whose batch happens to start with an integral-looking value must
// not be re-inferred as INT64 and rejected.
func TestCLIIngestSchemaNotReinferred(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "base.csv")
	if err := os.WriteFile(base, []byte("x,y\n1.5,2.5\n3.5,4.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	batch := filepath.Join(dir, "batch.csv")
	// First values are integral: naive type inference would read INT64.
	if err := os.WriteFile(batch, []byte("x,y\n20,40\n21.5,41.5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-table", "t="+base)
	cmd.Stdin = strings.NewReader("INGEST t " + batch + "\nSELECT COUNT(*) FROM t WHERE x BETWEEN 0 AND 100\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cli: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "ingested 2 rows into t (4 rows)") {
		t.Fatalf("integral-looking batch rejected:\n%s", s)
	}
	if !strings.Contains(s, "COUNT(*) = 4") {
		t.Fatalf("ingested rows not queryable:\n%s", s)
	}
}

// TestCLITrainSharded drives a stdin CREATE MODEL ... SHARDS statement:
// train a sharded ensemble interactively, query through it, and inspect
// the per-shard staleness ledger. The removed TRAIN statement is now an
// ordinary parse error.
func TestCLITrainSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	csv := filepath.Join(dir, "ccpp.csv")
	if err := datagen.CCPP(8000, 1).SaveCSV(csv); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-table", "ccpp="+csv)
	cmd.Stdin = strings.NewReader(strings.Join([]string{
		"CREATE MODEL power ON ccpp(T; EP) SHARDS 4 SAMPLE 1000 SEED 1",
		"EXPLAIN SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 12",
		"SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 12",
		"STALENESS",
		"TRAIN ccpp:T:EP SHARDS 4",
		"CREATE MODEL bad ON ccpp(T; EP) SHARDS zero",
	}, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cli: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"across 4 shards",
		"ShardMerge AVG(EP)",
		"source=model",
		"shard=0/4",
		"shard=3/4",
		"unexpected character ':'",
		"SHARDS wants a positive integer",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
}

// The declarative model-definition statements work end to end through the
// stdin loop: CREATE MODEL trains a queryable sharded ensemble, SHOW
// MODELS lists it (base key only, no raw shard-member keys), DROP MODEL
// removes it.
func TestCLIModelStatements(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	bin := buildCLI(t)
	dir := t.TempDir()
	csv := filepath.Join(dir, "ccpp.csv")
	if err := datagen.CCPP(4000, 1).SaveCSV(csv); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bin, "-table", "ccpp="+csv)
	cmd.Stdin = strings.NewReader(strings.Join([]string{
		"CREATE MODEL power ON ccpp(T; EP) SHARDS 4 SAMPLE 1000 SEED 1",
		"SHOW MODELS",
		"SELECT AVG(EP) FROM ccpp WHERE T BETWEEN 10 AND 20",
		"DROP MODEL power",
		"SHOW MODELS",
		"CREATE MODEL broken ON ccpp(T)", // parse error: missing "; y"
	}, "\n"))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cli: %v\n%s", err, out)
	}
	s := string(out)
	for _, want := range []string{
		"created model power (ccpp|T|EP|): 4 model(s) across 4 shards",
		"name=power shards=4 models=4",
		"staleness=0.000",
		"source=model",
		"dropped 4 model set(s)",
		"no models",
		"between predicate and aggregate columns",
	} {
		if !strings.Contains(s, want) {
			t.Fatalf("output missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "@s0/4 ") {
		t.Fatalf("SHOW MODELS leaked raw shard-member keys:\n%s", s)
	}
}
