package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded in the benchmark's own code around
// a call, or a block of sub-microsecond calls, into one layer.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Ops    int64  `json:"ops"`
}

// spanAgg accumulates every span of one name; self time is the total
// minus the part covered by child spans.
type spanAgg struct {
	Count   int64 `json:"count"`
	Ops     int64 `json:"ops"`
	TotalNs int64 `json:"total_ns"`
	ChildNs int64 `json:"child_ns"`
}

// maxKeptSpans bounds the spans kept for the trace file; every span,
// kept or not, is folded into the per-name aggregates.
const maxKeptSpans = 1 << 16

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
	agg     map[string]*spanAgg
	byID    []*spanAgg // span id-1 -> its name's aggregate
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), agg: map[string]*spanAgg{}}
}

// span records one interval and returns its id for use as a parent.
func (t *tracer) span(name string, parent int32, start, end time.Time, ops int64) int32 {
	d := end.Sub(start).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.agg[name]
	if a == nil {
		a = &spanAgg{}
		t.agg[name] = a
	}
	a.Count++
	a.Ops += ops
	a.TotalNs += d
	if parent > 0 {
		t.byID[parent-1].ChildNs += d
	}
	t.byID = append(t.byID, a)
	id := int32(len(t.byID))
	if len(t.spans) < maxKeptSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Ops: ops})
	} else {
		t.dropped++
	}
	return id
}

// write stores the stamp, the per-name aggregates and the kept spans as
// one JSON document under .bench_build/traces and returns its path.
func (t *tracer) write(workload string, seed uint64, st stamp) (string, error) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	doc := struct {
		Host    stamp               `json:"host"`
		Summary map[string]*spanAgg `json:"summary"`
		Dropped int64               `json:"dropped_spans"`
		Spans   []span              `json:"spans"`
	}{st, t.agg, t.dropped, t.spans}
	err = json.NewEncoder(w).Encode(doc)
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// rung is one step of the layer ladder; its value is the sum of the
// named metrics, in nanoseconds.
type rung struct {
	label string
	names []string
}

// ladders are the read path and the write path, each from the word
// kernel up.
var ladders = [][]rung{{
	{"hcbf word count", []string{"hcbf.count_ns"}},
	{"core contains", []string{"core.contains_ns"}},
	{"mpcbf.Sharded contains", []string{"mpcbf.contains_ns"}},
	{"server.Store contains", []string{"store.contains_ns"}},
	{"Store.NsContains", []string{"ns.contains_ns"}},
	{"loopback TCP echo", []string{"loopback.rtt_us"}},
	{"daemon round trip", []string{"server.rtt_us"}},
}, {
	{"hcbf word inc+dec", []string{"hcbf.incdec_ns"}},
	{"core insert+delete", []string{"core.insert_ns", "core.delete_ns"}},
	{"mpcbf.Sharded insert+delete", []string{"mpcbf.insert_ns", "mpcbf.delete_ns"}},
	{"server.Store insert+delete", []string{"store.insert_ns", "store.delete_ns"}},
}}

func rungNs(layers map[string]metric, r rung) float64 {
	v := 0.0
	for _, n := range r.names {
		m := layers[n]
		if m.Unit == "us" {
			v += m.Value * 1e3
		} else {
			v += m.Value
		}
	}
	return v
}

// printLayerTable prints the ladder with the gap between adjacent rungs,
// then every per-layer metric, then the span aggregates with self time.
func printLayerTable(w io.Writer, layers map[string]metric, t *tracer) {
	for _, ladder := range ladders {
		fmt.Fprintf(w, "%-30s %14s %14s\n", "rung", "ns", "gap ns")
		for i, r := range ladder {
			v := rungNs(layers, r)
			gap := ""
			if i > 0 {
				gap = fmt.Sprintf("%+.1f", v-rungNs(layers, ladder[i-1]))
			}
			fmt.Fprintf(w, "%-30s %14.1f %14s\n", r.label, v, gap)
		}
		fmt.Fprintln(w)
	}
	for _, n := range sortedNames(layers) {
		fmt.Fprintf(w, "%-32s %16.4f %s\n", n, layers[n].Value, layers[n].Unit)
	}
	fmt.Fprintln(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.agg))
	for n := range t.agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %10s %12s %14s %14s\n", "span", "count", "ops", "ns/op", "self ns/op")
	for _, n := range names {
		a := t.agg[n]
		ops := float64(max(a.Ops, 1))
		fmt.Fprintf(w, "%-24s %10d %12d %14.1f %14.1f\n", n, a.Count, a.Ops, float64(a.TotalNs)/ops, float64(a.TotalNs-a.ChildNs)/ops)
	}
}
