package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeSubtractsCoveredChildIntervals(t *testing.T) {
	spans := []span{
		// 0: a root over [0, 100) whose children cover [10, 40) and
		// [50, 60): self time 100 - 30 - 10 = 60.
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 30, parent: 0},
		{start: 20, end: 40, parent: 0}, // overlaps the previous child
		{start: 50, end: 60, parent: 0},
		// 4: a root with a child that runs past its end: only the covered
		// part [90, 100) counts.
		{start: 80, end: 100, parent: -1},
		{start: 90, end: 130, parent: 4},
		// 6: a nested child of span 1 covers [12, 18) of it.
		{start: 12, end: 18, parent: 1},
		// 7: a root with no children keeps its whole duration.
		{start: 5, end: 9, parent: -1},
	}
	want := []int64{60, 14, 20, 10, 10, 40, 6, 4}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestLayerTimesGroupByCallAndTag(t *testing.T) {
	client := []span{
		{start: 0, end: 100, parent: -1, name: spanOp},
		{start: 0, end: 10, parent: 0, name: spanPrepare, tag: tagMiss},
		{start: 10, end: 90, parent: 0, name: spanRun, tag: tagShard},
		{start: 100, end: 150, parent: -1, name: spanOp},
		{start: 100, end: 130, parent: 3, name: spanRun, tag: tagModel},
	}
	other := []span{
		{start: 0, end: 40, parent: -1, name: spanOp},
		{start: 0, end: 30, parent: 0, name: spanRun, tag: tagShard},
	}
	sum, count := layerTimes([][]span{client, other})
	for _, c := range []struct {
		k          layerKey
		sum, count int64
	}{
		{layerKey{spanOp, tagNone}, 10 + 20 + 10, 3},
		{layerKey{spanRun, tagShard}, 80 + 30, 2},
		{layerKey{spanRun, tagModel}, 30, 1},
		{layerKey{spanPrepare, tagMiss}, 10, 1},
	} {
		if sum[c.k] != c.sum || count[c.k] != c.count {
			t.Errorf("%s/%s: sum %d count %d, want %d and %d", spanNames[c.k.name], spanTags[c.k.tag],
				sum[c.k], count[c.k], c.sum, c.count)
		}
	}
}

func TestRecorderAndSpanFile(t *testing.T) {
	r := &recorder{}
	root := r.open(7)
	start := r.now()
	r.add(root, spanParse, tagNone, start, r.now())
	r.close(root)
	if s := r.spans[1]; s.parent != root || s.op != 7 || s.end < s.start {
		t.Fatalf("child span %+v: want parent %d, op 7", s, root)
	}
	if r.spans[root].end < r.spans[1].end {
		t.Fatalf("root ends before its child: %+v", r.spans)
	}
	path := filepath.Join(t.TempDir(), "sub", "spans.tsv")
	if err := writeSpans(path, [][]span{r.spans}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[2], "0\t1\t0\t7\tsqlparse.Parse\t\t") {
		t.Fatalf("span file:\n%s", b)
	}
}
