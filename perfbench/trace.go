package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanName is the layer call a span times. The benchmark records spans
// only around its own calls into the engine's public API.
type spanName uint8

const (
	spanOp        spanName = iota // one op of a client's sequence (the root)
	spanQuery                     // Engine.Query
	spanNormalize                 // sqlparse.Normalize
	spanParse                     // sqlparse.Parse
	spanPrepare                   // Engine.Prepare
	spanRun                       // PreparedQuery.Run
	spanAppend                    // Engine.Append
)

var spanNames = [...]string{"op", "Engine.Query", "sqlparse.Normalize", "sqlparse.Parse",
	"Engine.Prepare", "PreparedQuery.Run", "Engine.Append"}

// spanTag refines a span: whether a Prepare was for a repeated shape or
// fresh literals, and which path a Run was answered by.
type spanTag uint8

const (
	tagNone spanTag = iota
	tagHit          // Prepare of a repeated shape
	tagMiss         // Prepare of fresh literals
	tagModel
	tagShard
	tagSketch
	tagExact
)

var spanTags = [...]string{"", "hit", "miss", "model", "shard", "sketch", "exact"}

// span is one timed call: start and end are ns since the replay began,
// parent indexes the same client's span slice (-1 for a root) and op
// identifies the op every span of one operation shares.
type span struct {
	op         int64
	start, end int64
	parent     int32
	name       spanName
	tag        spanTag
}

// recorder keeps one client's spans in memory until the replay ends.
type recorder struct {
	base  time.Time
	spans []span
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// open starts a root span for op and returns its index.
func (r *recorder) open(op int64) int32 {
	r.spans = append(r.spans, span{op: op, start: r.now(), parent: -1, name: spanOp})
	return int32(len(r.spans) - 1)
}

func (r *recorder) close(id int32) { r.spans[id].end = r.now() }

// add records a finished child span of parent.
func (r *recorder) add(parent int32, name spanName, tag spanTag, start, end int64) {
	r.spans = append(r.spans, span{op: r.spans[parent].op, start: start, end: end,
		parent: parent, name: name, tag: tag})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children count
// once; children are clipped to the parent).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := make([]int64, len(spans))
	type iv struct{ lo, hi int64 }
	for i, s := range spans {
		out[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		ivs := make([]iv, 0, len(kids))
		for _, k := range kids {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
		var covered, curLo, curHi int64
		for j, v := range ivs {
			switch {
			case j == 0:
				curLo, curHi = v.lo, v.hi
			case v.lo <= curHi:
				curHi = max(curHi, v.hi)
			default:
				covered += curHi - curLo
				curLo, curHi = v.lo, v.hi
			}
		}
		if len(ivs) > 0 {
			covered += curHi - curLo
		}
		out[i] -= covered
	}
	return out
}

// layerKey groups spans for the per-layer means.
type layerKey struct {
	name spanName
	tag  spanTag
}

// layerTimes sums self time (ns) and counts spans per call and tag across
// every client's spans.
func layerTimes(clients [][]span) (sum map[layerKey]int64, count map[layerKey]int64) {
	sum, count = map[layerKey]int64{}, map[layerKey]int64{}
	for _, spans := range clients {
		self := selfTimes(spans)
		for i, s := range spans {
			k := layerKey{s.name, s.tag}
			sum[k] += self[i]
			count[k]++
		}
	}
	return sum, count
}

// writeSpans writes every client's spans as tab-separated lines:
// client, span id, parent id, op id, name, tag, start ns, end ns.
func writeSpans(path string, clients [][]span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client\tid\tparent\top\tname\ttag\tstart_ns\tend_ns")
	for c, spans := range clients {
		for i, s := range spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%s\t%d\t%d\n", c, i, s.parent, s.op,
				spanNames[s.name], spanTags[s.tag], s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
