package dbest

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"dbest/internal/catalog"
	"dbest/internal/core"
)

// TestLoadModelsRejectsUnservableCatalogs saves catalogs that no kernel
// could serve — a univariate model without an evaluation grid (as saved
// before grids existed) and a persisted spec with a negative grid knot
// budget — and checks LoadModels rejects each with an error naming the
// model key, before it replaces the engine's current catalog.
func TestLoadModelsRejectsUnservableCatalogs(t *testing.T) {
	eng := New(nil)
	if err := eng.RegisterTable(snapTestTable("old", 2000, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.CreateModel(context.Background(), &ModelSpec{
		Table: "old", XCols: []string{"x"}, YCol: "y", SampleSize: 500, Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	key := eng.ModelKeys()[0]
	trained := eng.catalog.Get(key)

	for name, mutate := range map[string]func(ms *core.ModelSet){
		"no grid": func(ms *core.ModelSet) {
			uni := *ms.Uni
			uni.Grid = nil
			ms.Uni = &uni
		},
		"negative grid_knots": func(ms *core.ModelSet) {
			spec, err := decodeSpec(ms.Spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.GridKnots = -1
			ms.Spec = spec.encode()
		},
	} {
		t.Run(name, func(t *testing.T) {
			bad := *trained
			mutate(&bad)
			old := catalog.New()
			old.Put(&bad)
			path := filepath.Join(t.TempDir(), "old.gob")
			if err := old.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			gen := eng.SnapshotStats().Generation
			err := eng.LoadModels(path)
			if err == nil || !strings.Contains(err.Error(), key) {
				t.Fatalf("LoadModels err = %v, want an error naming %s", err, key)
			}
			if eng.catalog.Get(key) != trained || eng.SnapshotStats().Generation != gen {
				t.Fatal("a rejected load replaced the current catalog")
			}
		})
	}
}
