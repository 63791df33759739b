package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	mpcbf "repro"
	"repro/server"
)

// churnTarget is what lib_churn and store_churn drive: *mpcbf.Sharded and
// *server.Store both satisfy it, and the tests substitute faulty stubs.
type churnTarget interface {
	Insert(key []byte) error
	Delete(key []byte) error
	Contains(key []byte) bool
	EstimateCount(key []byte) int
	Len() int
}

// churner is one goroutine's share of a churn workload, on a key range
// of its own.
type churner struct {
	ring    ring
	cursor  uint64 // next present key to read, as an offset into the live range
	absent  keyset
	nextAbs int
	// Results of the goroutine's timed blocks, per op.
	readNs, writeNs []float64
	ops, failed     int64
	falseNeg        int64
	err             error
}

// churnSpec is the shape of one churn workload.
type churnSpec struct {
	goroutines int
	block      int  // steps per timed block
	absentRead bool // each step also looks up a never-inserted key
	layer      string
}

// step counts: a step inserts the next key, deletes the oldest, and
// looks up a present key (and an absent one when absentRead is set).
func (s churnSpec) readsPerStep() int {
	if s.absentRead {
		return 2
	}
	return 1
}

// steady runs the timed churn for d across every churner and returns
// when all have stopped. Blocks are timed as a whole: the calls are
// sub-microsecond, and a clock read per call would cost as much as the
// call.
func (s churnSpec) steady(t churnTarget, cs []*churner, d time.Duration, prog *progress, tr *tracer) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *churner) {
			defer wg.Done()
			s.run(t, c, deadline, prog, tr)
		}(c)
	}
	wg.Wait()
}

func (s churnSpec) run(t churnTarget, c *churner, deadline time.Time, prog *progress, tr *tracer) {
	width := c.ring.hi - c.ring.lo
	reads := s.block * s.readsPerStep()
	for time.Now().Before(deadline) {
		t0 := time.Now()
		for j := 0; j < s.block; j++ {
			k := c.ring.lo + int64(c.cursor%uint64(width))
			c.cursor++
			if !t.Contains(c.ring.key(k)) {
				c.falseNeg++
			}
			if s.absentRead {
				t.Contains(c.absent.at(c.nextAbs))
				c.nextAbs = (c.nextAbs + 1) % c.absent.n
			}
		}
		t1 := time.Now()
		c.steps(t, s.block)
		t2 := time.Now()
		c.readNs = append(c.readNs, float64(t1.Sub(t0))/float64(reads))
		c.writeNs = append(c.writeNs, float64(t2.Sub(t1))/float64(2*s.block))
		c.ops += int64(reads)
		n := int64(reads + 2*s.block)
		prog.add(n)
		if tr != nil {
			parent := tr.span("churn.block", 0, t0, t2, n)
			tr.span(s.layer+".contains", parent, t0, t1, int64(reads))
			tr.span(s.layer+".insert_delete", parent, t1, t2, int64(2*s.block))
		}
	}
}

// steps runs n insert-new/delete-oldest steps on t.
func (c *churner) steps(t churnTarget, n int) {
	for j := 0; j < n; j++ {
		if err := t.Insert(c.ring.key(c.ring.hi)); err != nil {
			c.failed++
			c.err = err
		} else {
			c.ring.hi++
		}
		if err := t.Delete(c.ring.key(c.ring.lo)); err != nil {
			c.failed++
			c.err = err
		} else {
			c.ring.lo++
		}
	}
	c.ops += int64(2 * n)
}

// fixedChurn runs n steps on every churner, one churner after another,
// so a store's WAL holds the same records in the same order for a seed,
// and replaying it does the same work every run.
func fixedChurn(t churnTarget, cs []*churner, n int) {
	for _, c := range cs {
		c.steps(t, n)
	}
}

// probeFPR looks up every absent key once and returns the positive share.
func probeFPR(contains func(k []byte) bool, absent keyset) float64 {
	pos := 0
	for i := 0; i < absent.n; i++ {
		if contains(absent.at(i)) {
			pos++
		}
	}
	return float64(pos) / float64(absent.n)
}

// verifyChurn runs the end-of-run checks against the benchmark's own
// record: every live key present, Len equal to inserts minus successful
// deletes, EstimateCount at least each multi key's multiplicity.
func verifyChurn(what string, t churnTarget, cs []*churner, multi keyset, v *verdict) {
	live := 0
	for i, c := range cs {
		r := c.ring
		v.add(checkPresent(fmt.Sprintf("%s writer %d", what, i), int(r.hi-r.lo),
			func(j int) []byte { return r.key(r.lo + int64(j)) },
			func(k []byte) (bool, error) { return t.Contains(k), nil }))
		live += int(r.hi - r.lo)
		if c.falseNeg > 0 {
			v.add(fmt.Errorf("%s writer %d: %d present-key lookups answered absent during the steady phase", what, i, c.falseNeg))
		}
	}
	v.add(checkPresent(what+" multi", multi.n, multi.at, func(k []byte) (bool, error) { return t.Contains(k), nil }))
	v.add(checkLen(what, t.Len(), live+multiTotal(multi.n)))
	checkEstimates(what, multi, func(k []byte) (int, error) { return t.EstimateCount(k), nil }, false, v)
}

// newChurners splits population over n goroutines, each with its own key
// ring (a quarter again as many keys as it keeps live) and absent probes.
func newChurners(seed uint64, n, population int, absent keyset) []*churner {
	cs := make([]*churner, n)
	per := population / n
	for i := range cs {
		cs[i] = &churner{
			ring:   ring{keys: genKeys(seed, streamLive, byte(i), per+per/4), hi: int64(per)},
			cursor: splitmix64(seed ^ uint64(i)),
			absent: absent,
		}
	}
	return cs
}

// loadChurn inserts every churner's initial live range and the multi keys.
func loadChurn(t churnTarget, cs []*churner, multi keyset) error {
	for _, c := range cs {
		for i := c.ring.lo; i < c.ring.hi; i++ {
			if err := t.Insert(c.ring.key(i)); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
	}
	return insertMulti(t.Insert, multi)
}

func insertMulti(insert func([]byte) error, multi keyset) error {
	for i := 0; i < multi.n; i++ {
		for m := 0; m < multiplicity(i); m++ {
			if err := insert(multi.at(i)); err != nil {
				return fmt.Errorf("load multi: %w", err)
			}
		}
	}
	return nil
}

func sumChurn(cs []*churner) (ops, failed int64, err error) {
	for _, c := range cs {
		ops += c.ops
		failed += c.failed
		if c.err != nil && err == nil {
			err = c.err
		}
	}
	return ops, failed, err
}

// libChurn is the lib_churn workload: the paper's data structure alone,
// a Sharded filter larger than L2 driven by one goroutine.
func libChurn(rc runConfig) (*outcome, error) {
	sz := rc.sizes
	opts := mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population, Seed: uint32(rc.seed)}
	absent := genKeys(rc.seed, streamAbsent, 0, sz.probes)
	multi := genKeys(rc.seed, streamMulti, 0, sz.multi)
	spec := churnSpec{goroutines: 1, block: sz.block, absentRead: true, layer: "mpcbf"}
	out := newOutcome()

	var f *mpcbf.Sharded
	var cs []*churner
	setup, err := timeReps(sz.setupReps, func(int) (time.Duration, error) {
		cs = newChurners(rc.seed, spec.goroutines, sz.population, absent)
		t0 := time.Now()
		var err error
		if f, err = mpcbf.NewSharded(opts, sz.shards); err != nil {
			return 0, err
		}
		if err := loadChurn(f, cs, multi); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	out.e2e("setup_s", setup, "s")
	out.attempted += int64(sz.population + multiTotal(sz.multi))

	// Fixed-count phase: its counts repeat exactly for a seed.
	runtime.GC()
	fixedChurn(f, cs, sz.fixedSteps)
	fpr := probeFPR(f.Contains, absent)
	out.attempted += int64(absent.n)
	out.e2e("fpr", fpr, "ratio")
	geo, err := shardGeometry(opts, sz.shards)
	if err != nil {
		return nil, err
	}
	out.checks.add(checkFPR("lib_churn", fpr, modelFPR(geo, f.Len()/sz.shards)))

	// The library has no log: its durable form is the MarshalBinary
	// snapshot, so disk_bytes_per_write is that snapshot's size per live
	// key, and recover_s is UnmarshalSharded of it, both the library's
	// own code. The round trip is checked once, untimed.
	blob, err := f.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out.e2e("disk_bytes_per_write", float64(len(blob))/float64(f.Len()), "B")
	g, err := mpcbf.UnmarshalSharded(blob)
	if err != nil {
		return nil, err
	}
	again, err := g.MarshalBinary()
	if err != nil {
		return nil, err
	}
	out.checks.add(checkBlob("lib_churn recovery", again, blob))
	verifyChurn("lib_churn recovered", g, cs, multi, &out.checks)
	recov, err := timeReps(sz.recoverReps, func(int) (time.Duration, error) {
		t0 := time.Now()
		_, err := mpcbf.UnmarshalSharded(blob)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	out.e2e("recover_s", recov, "s")

	if err := churnSteady(rc, spec, f, cs, out); err != nil {
		return nil, err
	}
	ops, failed, opErr := sumChurn(cs)
	out.attempted += ops
	out.failed += failed
	out.opErr = opErr
	verifyChurn("lib_churn", f, cs, multi, &out.checks)
	if rc.trace {
		runLadder(rc, out)
	}
	return out, nil
}

// churnSteady runs the steady phase (untraced), or in a traced run four
// alternating untraced/traced segments, and records the phase metrics.
func churnSteady(rc runConfig, spec churnSpec, t churnTarget, cs []*churner, out *outcome) error {
	return steadyPhases(rc, out, func(d time.Duration, prog *progress, tr *tracer) {
		spec.steady(t, cs, d, prog, tr)
	}, func() (reads, writes []float64) {
		for _, c := range cs {
			reads = append(reads, c.readNs...)
			writes = append(writes, c.writeNs...)
			c.readNs, c.writeNs = c.readNs[:0], c.writeNs[:0]
		}
		return reads, writes
	})
}

// storeChurn is the store_churn workload: the same key stream through
// server.Store at SyncNever from nproc writers, write-heavy.
func storeChurn(rc runConfig) (*outcome, error) {
	sz := rc.sizes
	opts := mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population, Seed: uint32(rc.seed)}
	absent := genKeys(rc.seed, streamAbsent, 0, sz.probes)
	multi := genKeys(rc.seed, streamMulti, 0, sz.multi)
	spec := churnSpec{goroutines: runtime.NumCPU(), block: sz.block, layer: "store"}
	out := newOutcome()
	sopts := func(dir string) server.StoreOptions {
		return server.StoreOptions{Dir: dir, Filter: opts, Shards: sz.shards, Sync: server.SyncNever, Log: discardLog}
	}

	var st *server.Store
	var dir string
	var cs []*churner
	setup, err := timeReps(sz.setupReps, func(rep int) (time.Duration, error) {
		if st != nil {
			if err := closeAndRemove(st, dir); err != nil {
				return 0, err
			}
		}
		cs = newChurners(rc.seed, spec.goroutines, sz.population, absent)
		dir = filepath.Join(rc.dir, fmt.Sprintf("store-%d", rep))
		t0 := time.Now()
		var err error
		if st, err = server.OpenStore(sopts(dir)); err != nil {
			return 0, err
		}
		if err := loadStore(st, cs, multi); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	out.e2e("setup_s", setup, "s")
	out.attempted += int64(sz.population + multiTotal(sz.multi))

	if err := st.Snapshot(); err != nil {
		return nil, err
	}
	runtime.GC()
	before, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	fixedChurn(st, cs, sz.fixedSteps)
	if _, _, err := st.WALFlushedPos(); err != nil {
		return nil, err
	}
	after, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	out.e2e("disk_bytes_per_write", float64(after-before)/float64(2*sz.fixedSteps*len(cs)), "B")
	fpr := probeFPR(st.Contains, absent)
	out.attempted += int64(absent.n)
	out.e2e("fpr", fpr, "ratio")
	geo, err := shardGeometry(opts, sz.shards)
	if err != nil {
		return nil, err
	}
	out.checks.add(checkFPR("store_churn", fpr, modelFPR(geo, st.Len()/sz.shards)))

	recov, err := recoverCopies(rc, st, dir, sopts, sz.recoverReps, out, func(r *server.Store) {
		verifyChurn("store_churn recovered", r, cs, multi, &out.checks)
	})
	if err != nil {
		return nil, err
	}
	out.e2e("recover_s", recov, "s")

	if err := churnSteady(rc, spec, st, cs, out); err != nil {
		return nil, err
	}
	ops, failed, opErr := sumChurn(cs)
	out.attempted += ops
	out.failed += failed
	out.opErr = opErr
	verifyChurn("store_churn", st, cs, multi, &out.checks)
	if rc.trace {
		runLadder(rc, out)
	}
	return out, nil
}

// loadStore loads the initial population through the store's batch path,
// the way a bulk loader would.
func loadStore(st *server.Store, cs []*churner, multi keyset) error {
	var batch [][]byte
	for _, c := range cs {
		for i := c.ring.lo; i < c.ring.hi; i += loadBatch {
			end := min(i+loadBatch, c.ring.hi)
			batch = batch[:0]
			for j := i; j < end; j++ {
				batch = append(batch, c.ring.key(j))
			}
			if err := st.InsertBatch(batch); err != nil {
				return fmt.Errorf("load: %w", err)
			}
		}
	}
	return insertMulti(st.Insert, multi)
}

// loadBatch is the bulk-load batch size used by every store-backed set-up.
const loadBatch = 1024

// recoverCopies copies the live store's data directory (no final
// snapshot: the store stays open) and times server.OpenStore on a fresh
// copy reps times. The first reopened copy must marshal byte for byte
// like the live store and pass verify.
func recoverCopies(rc runConfig, st *server.Store, src string, sopts func(string) server.StoreOptions, reps int, out *outcome, verify func(*server.Store)) (float64, error) {
	want, err := st.MarshalFilter()
	if err != nil {
		return 0, err
	}
	if _, _, err := st.WALFlushedPos(); err != nil {
		return 0, err
	}
	return timeReps(reps, func(rep int) (time.Duration, error) {
		dir := filepath.Join(rc.dir, fmt.Sprintf("recover-%d", rep))
		if err := copyDir(src, dir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		r, err := server.OpenStore(sopts(dir))
		if err != nil {
			return 0, fmt.Errorf("recover: %w", err)
		}
		d := time.Since(t0)
		if rep == 0 {
			got, err := r.MarshalFilter()
			if err != nil {
				return 0, err
			}
			out.checks.add(checkBlob("recovery", got, want))
			verify(r)
		}
		return d, closeAndRemove(r, dir)
	})
}

// closeAndRemove closes a store and deletes its data directory.
func closeAndRemove(st *server.Store, dir string) error {
	err := st.Close()
	return errors.Join(err, os.RemoveAll(dir))
}
