package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	mpcbf "repro"
	"repro/elastic"
	"repro/internal/analytic"
	"repro/server/wire"
)

// benchmarkSpec is the part of BENCHMARK.json the runs must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func tinyRun(t *testing.T, name string, trace bool) *outcome {
	t.Helper()
	w, ok := findWorkload(name)
	if !ok {
		t.Fatalf("no workload %s", name)
	}
	rc := runConfig{workload: name, seed: 7, seconds: 0.4, trace: trace, sizes: sizesFor(name, true), dir: t.TempDir()}
	if trace {
		rc.tracer = newTracer()
	}
	out, err := w.run(rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !out.checks.ok() {
		t.Fatalf("%s: checks failed: %v", name, out.checks.err())
	}
	if out.failed != 0 || out.attempted <= 0 {
		t.Fatalf("%s: attempted %d, failed %d (%v)", name, out.attempted, out.failed, out.opErr)
	}
	return out
}

// wantMetrics fails unless got holds exactly the named metrics, each with
// its declared unit (peak_rss_mb is added by runOne).
func wantMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }, skip string) {
	t.Helper()
	var missing []string
	for _, m := range want {
		if m.Name == skip {
			continue
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: %s unit %q, BENCHMARK.json says %q", what, m.Name, g.Unit, m.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s = %v", what, m.Name, g.Value)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%s: missing metrics %v", what, missing)
	}
	if len(got) != len(want)-btoi(skip != "") {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("%s: reports %d metrics %v, BENCHMARK.json lists %d", what, len(got), names, len(want))
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestWorkloadsTiny(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			out := tinyRun(t, w.Name, false)
			wantMetrics(t, w.Name, out.endToEnd, spec.EndToEnd, "peak_rss_mb")
			for n, m := range out.endToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, n, m.Value)
				}
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the ladder probes")
	}
	spec := loadSpec(t)
	out := tinyRun(t, "served_mixed", true)
	wantMetrics(t, "traced served_mixed", out.perLayer, spec.PerLayer, "")
	var table bytes.Buffer
	tr := newTracer()
	tr.span("client.flush", 0, tr.t0, tr.t0, 1)
	printLayerTable(&table, out.perLayer, tr)
	if !strings.Contains(table.String(), "daemon round trip") {
		t.Errorf("layer table lacks the ladder:\n%s", table.String())
	}
}

// forgetful wraps a real filter with the faults the checks must catch.
type forgetful struct {
	*mpcbf.Sharded
	forget   []byte // answers absent for this key
	lenDelta int    // added to Len
	estZero  bool   // EstimateCount reports 0
	estWrap  bool   // EstimateCount reports the overflowed sum of an elastic chain
}

func (f forgetful) Contains(k []byte) bool {
	if bytes.Equal(k, f.forget) {
		return false
	}
	return f.Sharded.Contains(k)
}

func (f forgetful) Len() int { return f.Sharded.Len() + f.lenDelta }

func (f forgetful) EstimateCount(k []byte) int {
	switch {
	case f.estZero:
		return 0
	case f.estWrap:
		return math.MinInt
	}
	return f.Sharded.EstimateCount(k)
}

func loadedFilter(t *testing.T) (*mpcbf.Sharded, []*churner, keyset) {
	t.Helper()
	sz := sizesFor("lib_churn", true)
	f, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population, Seed: 3}, sz.shards)
	if err != nil {
		t.Fatal(err)
	}
	absent := genKeys(3, streamAbsent, 0, 16)
	cs := newChurners(3, 2, sz.population, absent)
	multi := genKeys(3, streamMulti, 0, sz.multi)
	if err := loadChurn(f, cs, multi); err != nil {
		t.Fatal(err)
	}
	fixedChurn(f, cs, 100)
	return f, cs, multi
}

func TestChecksCatchFaults(t *testing.T) {
	f, cs, multi := loadedFilter(t)
	run := func(target churnTarget) error {
		var v verdict
		verifyChurn("stub", target, cs, multi, &v)
		return v.err()
	}
	if err := run(forgetful{Sharded: f}); err != nil {
		t.Fatalf("healthy filter failed the checks: %v", err)
	}
	faults := map[string]forgetful{
		"forgets a key":       {Sharded: f, forget: cs[1].ring.key(cs[1].ring.lo + 5)},
		"miscounts Len":       {Sharded: f, lenDelta: 1},
		"undercounts a multi": {Sharded: f, estZero: true},
		"forgets a multi key": {Sharded: f, forget: multi.at(2)},
		"Len one short":       {Sharded: f, lenDelta: -1},
	}
	for name, stub := range faults {
		if err := run(stub); err == nil {
			t.Errorf("%s: checks passed", name)
		}
	}
}

func TestRecoveryCheckCatchesDifferentBlob(t *testing.T) {
	f, cs, multi := loadedFilter(t)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	g, err := mpcbf.UnmarshalSharded(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := g.MarshalBinary()
	if err := checkBlob("same", again, blob); err != nil {
		t.Fatal(err)
	}
	// A recovery that lost one record: a different blob and a missing key.
	if err := g.Delete(cs[0].ring.key(cs[0].ring.lo)); err != nil {
		t.Fatal(err)
	}
	differ, _ := g.MarshalBinary()
	if checkBlob("lost record", differ, blob) == nil {
		t.Error("a recovered blob that differs passed the byte comparison")
	}
	var v verdict
	verifyChurn("lost record", g, cs, multi, &v)
	if v.ok() {
		t.Error("a recovered store missing a live key passed the checks")
	}
}

// stubTenant is a tenantReader over a filter, with the faults of forgetful.
type stubTenant struct{ f forgetful }

func (s stubTenant) containsBatch(keys [][]byte) ([]bool, error) {
	out := make([]bool, len(keys))
	for i, k := range keys {
		out[i] = s.f.Contains(k)
	}
	return out, nil
}

func (s stubTenant) estimate(k []byte) (int, error) { return s.f.EstimateCount(k), nil }
func (s stubTenant) length() (int, error)           { return s.f.Len(), nil }

func TestTenantChecksCatchFaults(t *testing.T) {
	sz := sizesFor("served_tenants", true)
	f, err := mpcbf.NewSharded(mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population}, sz.shards)
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{
		ring:   ring{keys: genKeys(5, streamLive, 0, 2000), lo: 300, hi: 1800},
		static: genKeys(5, streamStatic, 0, 100),
		multi:  genKeys(5, streamMulti, 0, 9),
	}
	for i := tn.ring.lo; i < tn.ring.hi; i++ {
		f.Insert(tn.ring.key(i))
	}
	for i := 0; i < tn.static.n; i++ {
		f.Insert(tn.static.at(i))
	}
	insertMulti(f.Insert, tn.multi)
	check := func(s forgetful) error {
		var v verdict
		verifyTenant("stub", stubTenant{s}, tn, &v)
		return v.err()
	}
	if err := check(forgetful{Sharded: f}); err != nil {
		t.Fatalf("healthy tenant failed: %v", err)
	}
	faults := map[string]forgetful{
		"forgets a live key":     {Sharded: f, forget: tn.ring.key(tn.ring.hi - 1)},
		"forgets an archive key": {Sharded: f, forget: tn.static.at(7)},
		"forgets a multi key":    {Sharded: f, forget: tn.multi.at(4)},
		"miscounts Len":          {Sharded: f, lenDelta: 2},
		"undercounts a multi":    {Sharded: f, estZero: true},
	}
	for name, s := range faults {
		if check(s) == nil {
			t.Errorf("%s: checks passed", name)
		}
	}
	if check(forgetful{Sharded: f, estWrap: true}) == nil {
		t.Error("a plain tenant's negative EstimateCount passed")
	}

	// An elastic tenant: the same faults fail, and an overflowed
	// estimate is counted instead.
	tn.cfg.Flags = wire.NsFlagElastic
	for name, s := range faults {
		if check(s) == nil {
			t.Errorf("elastic, %s: checks passed", name)
		}
	}
	var v verdict
	verifyTenant("stub", stubTenant{forgetful{Sharded: f, estWrap: true}}, tn, &v)
	if !v.ok() || v.estimateOverflows != tn.multi.n {
		t.Errorf("elastic overflow: ok %v, %d overflows counted, want %d", v.ok(), v.estimateOverflows, tn.multi.n)
	}
}

// The chain model must track what an elastic chain grown twice actually
// answers, and must not pass a chain whose rate it underestimates.
func TestChainModel(t *testing.T) {
	sz := sizesFor("served_tenants", true)
	el, err := elastic.New(elastic.Options{Filter: mpcbf.Options{MemoryBits: sz.memoryBits / 4, ExpectedItems: sz.population / 4, Seed: 9}, Shards: sz.shards})
	if err != nil {
		t.Fatal(err)
	}
	keys := genKeys(9, streamLive, 0, sz.population)
	for i := 0; i < keys.n; i++ {
		if err := el.Insert(keys.at(i)); err != nil {
			t.Fatal(err)
		}
		if el.NeedsGrow() {
			if err := el.Grow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if el.Generations() < 2 {
		t.Fatalf("chain has %d generations", el.Generations())
	}
	blob, err := el.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	model, err := chainModelFPR(blob)
	if err != nil {
		t.Fatal(err)
	}
	observed := probeFPR(el.Contains, genKeys(9, streamAbsent, 0, 1<<18))
	if err := checkFPR("chain", observed, model); err != nil {
		t.Error(err)
	}
	// Only the head generation's model is well below the chain's rate.
	gens, err := el.ExportGenerations()
	if err != nil {
		t.Fatal(err)
	}
	shards, err := shardFilters(gens[len(gens)-1])
	if err != nil {
		t.Fatal(err)
	}
	head := 0.0
	for _, s := range shards {
		head += modelFPR(s.Geometry(), s.Len()) / float64(len(shards))
	}
	t.Logf("%d generations: observed %.4g, chain model %.4g, head-only model %.4g", len(gens), observed, model, head)
	if checkFPR("head only", observed, head) == nil {
		t.Errorf("the head generation's model %.4g passed against the chain's rate %.4g", head, observed)
	}
	if _, err := shardFilters(gens[0][:len(gens[0])-1]); err == nil {
		t.Error("a truncated sharded blob decoded")
	}
}

func TestFPRCheck(t *testing.T) {
	if checkFPR("near", 0.0305, 0.03) != nil {
		t.Error("1.7% off the model failed")
	}
	if checkFPR("far", 0.04, 0.03) == nil {
		t.Error("33% off the model passed")
	}
	if checkFPR("zero model", 0.01, 0) == nil {
		t.Error("a zero model passed")
	}
}

// The benchmark's own Eq. 4-5 must agree with the program's analytic
// package on the geometries the workloads use.
func TestModelMatchesAnalytic(t *testing.T) {
	for _, name := range []string{"lib_churn", "store_churn", "served_mixed", "served_tenants"} {
		sz := sizesFor(name, false)
		o := mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population}
		g, err := shardGeometry(o, sz.shards)
		if err != nil {
			t.Fatal(err)
		}
		n := sz.population / sz.shards
		mine := modelFPR(g, n)
		perWord := g.WordBits - g.FirstLevelBits
		theirs := analytic.FPRMPCBF1(n, g.Words*g.WordBits/analytic.CounterBits, g.WordBits, g.HashFunctions, perWord/g.HashFunctions)
		if math.Abs(mine/theirs-1) > 1e-6 {
			t.Errorf("%s: model %.6g, analytic %.6g", name, mine, theirs)
		}
	}
}

func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	for q, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25} {
		if got := quantile(xs, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("q%.2f = %v, want %v", q, got, want)
		}
	}
}

func TestKeysAreSeededAndDistinct(t *testing.T) {
	a, b := genKeys(1, streamLive, 0, 1000), genKeys(1, streamLive, 0, 1000)
	if !bytes.Equal(a.buf, b.buf) {
		t.Fatal("same seed gave different keys")
	}
	if bytes.Equal(a.buf, genKeys(2, streamLive, 0, 1000).buf) {
		t.Fatal("different seeds gave the same keys")
	}
	seen := map[string]bool{}
	for _, ks := range []keyset{a, genKeys(1, streamAbsent, 0, 1000), genKeys(1, streamLive, 1, 1000)} {
		for i := 0; i < ks.n; i++ {
			if seen[string(ks.at(i))] {
				t.Fatalf("key collision at %d", i)
			}
			seen[string(ks.at(i))] = true
		}
	}
}
