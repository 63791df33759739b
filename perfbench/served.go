package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	mpcbf "repro"
	"repro/client"
	"repro/server"
	"repro/server/wire"
)

// The served workloads drive an in-process daemon over loopback from two
// pipelined connections: one sends only reads, the other only writes, so
// a change that speeds one up at the other's cost shows in
// read_p50_us against write_p50_us.
const (
	writeSingles   = 64 // single Insert and single Delete requests per write flush (each)
	writeBatches   = 8  // InsertBatch and DeleteBatch requests per write flush (each)
	readSingles    = 96 // single Contains per read flush, alternating present/absent
	readBatches    = 16 // ContainsBatch per read flush, half present, half absent
	batchKeys      = 32 // keys per batch request
	writeFlushKeys = 2*writeSingles + 2*writeBatches*batchKeys
	readFlushKeys  = readSingles + readBatches*batchKeys
)

// tenant is one filter the served workloads churn: the default filter
// (nil name) or a namespace. The writer goroutine owns ring; the reader
// learns what is safely live from the two atomics.
type tenant struct {
	name   []byte
	cfg    wire.NsConfig // CREATE_NS configuration (named tenants)
	ring   ring
	static keyset // elastic archive: inserted in set-up, never deleted
	multi  keyset

	// ackHi: every index below it has an acknowledged insert.
	// delFrontier: a delete may have been sent for any index below it;
	// it is raised before the deletes are queued.
	ackHi, delFrontier atomic.Int64
}

// pipeOps is the queueing surface shared by client.Pipeline (the default
// filter) and client.PipelineNS (a namespace).
type pipeOps interface {
	Insert(key []byte)
	Delete(key []byte)
	Contains(key []byte)
	InsertBatch(keys [][]byte)
	DeleteBatch(keys [][]byte)
	ContainsBatch(keys [][]byte)
}

func (t *tenant) label() string {
	if t.name == nil {
		return "default"
	}
	return string(t.name)
}

// daemon is the in-process mpcbfd: store, server on loopback, and the
// reader and writer connections.
type daemon struct {
	dir            string
	store          *server.Store
	srv            *server.Server
	served         chan error
	reader, writer *client.Client
	stopped        bool
}

func startDaemon(sopts server.StoreOptions, traceSample int) (*daemon, error) {
	st, err := server.OpenStore(sopts)
	if err != nil {
		return nil, err
	}
	d := &daemon{dir: sopts.Dir, store: st, served: make(chan error, 1)}
	d.srv = server.New(st, server.Config{TraceSample: traceSample, Log: discardLog}, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	addr := ln.Addr().String()
	go func() { d.served <- d.srv.Serve(ln) }()
	if d.reader, err = client.Dial(addr, client.WithTimeout(30*time.Second)); err == nil {
		d.writer, err = client.Dial(addr, client.WithTimeout(30*time.Second))
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop closes the connections, shuts the server down, waits for Serve
// to return, and closes the store (which writes its final snapshot).
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	var errs []error
	for _, c := range []*client.Client{d.reader, d.writer} {
		if c != nil {
			c.Close()
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	errs = append(errs, d.srv.Shutdown(ctx), <-d.served, d.store.Close())
	return errors.Join(errs...)
}

// servedRun is one served workload in progress.
type servedRun struct {
	rc      runConfig
	tenants []*tenant
	absent  keyset
	d       *daemon
	flushes int // write flushes sent: picks each slot's tenant

	readNs, writeNs []float64 // per-flush round trips of the last steady segment
	total           loopStats // every operation of the run
}

// loopStats is what one connection's loop records; each loop owns its
// own, and they are merged after the loops have stopped.
type loopStats struct {
	ns       []float64 // per-flush round-trip times
	ops      int64
	failed   int64
	falseNeg int64
	err      error
}

func (s *loopStats) fail(err error) {
	s.failed++
	if s.err == nil {
		s.err = err
	}
}

func (s *loopStats) merge(o *loopStats) {
	s.ops += o.ops
	s.failed += o.failed
	s.falseNeg += o.falseNeg
	if s.err == nil {
		s.err = o.err
	}
}

func servedMixed(rc runConfig) (*outcome, error) {
	sz := rc.sizes
	t := &tenant{
		ring:  ring{keys: genKeys(rc.seed, streamLive, 0, sz.population+sz.population/4), hi: int64(sz.population)},
		multi: genKeys(rc.seed, streamMulti, 0, sz.multi),
	}
	return runServed(rc, []*tenant{t})
}

func servedTenants(rc runConfig) (*outcome, error) {
	sz := rc.sizes
	mk := func(i int, name string, cfg wire.NsConfig, pop int) *tenant {
		cfg.ExpectedItems = uint64(pop)
		cfg.HashFunctions, cfg.MemoryAccesses = 3, 1
		cfg.Shards = uint16(sz.shards)
		cfg.Seed = uint32(rc.seed) + uint32(i)
		return &tenant{
			name:  []byte(name),
			cfg:   cfg,
			ring:  ring{keys: genKeys(rc.seed, streamLive, byte(i), pop+pop/4), hi: int64(pop)},
			multi: genKeys(rc.seed, streamMulti, byte(i), sz.multi),
		}
	}
	plain := mk(0, "plain", wire.NsConfig{MemoryBits: uint64(sz.memoryBits)}, sz.population)
	// The window's span is long enough that no rotation falls in a run:
	// every key stays in the head generation.
	win := mk(1, "window", wire.NsConfig{MemoryBits: uint64(sz.memoryBits), WindowNanos: uint64(24 * time.Hour), Generations: 4}, sz.population)
	// The elastic chain's seed generation is filled with archive keys in
	// set-up, which grows it once; the churned population then lives in
	// the grown head at under three quarters of its capacity, so the
	// churn never grows it again.
	el := mk(2, "elastic", wire.NsConfig{MemoryBits: uint64(sz.memoryBits / 2), Flags: wire.NsFlagElastic}, sz.population/2)
	el.static = genKeys(rc.seed, streamStatic, 2, sz.population/2)
	return runServed(rc, []*tenant{plain, win, el})
}

func runServed(rc runConfig, tenants []*tenant) (*outcome, error) {
	sz := rc.sizes
	out := newOutcome()
	r := &servedRun{rc: rc, tenants: tenants, absent: genKeys(rc.seed, streamAbsent, 0, sz.probes)}
	opts := mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population, Seed: uint32(rc.seed)}
	sopts := func(dir string) server.StoreOptions {
		return server.StoreOptions{Dir: dir, Filter: opts, Shards: sz.shards, Sync: server.SyncNever, Log: discardLog}
	}
	setup, err := timeReps(sz.setupReps, func(rep int) (time.Duration, error) {
		if r.d != nil {
			if err := r.d.stop(); err != nil {
				return 0, err
			}
			if err := os.RemoveAll(r.d.dir); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		d, err := startDaemon(sopts(filepath.Join(rc.dir, fmt.Sprintf("daemon-%d", rep))), 0)
		if err != nil {
			return 0, err
		}
		r.d = d
		if err := r.load(); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	})
	if err != nil {
		if r.d != nil {
			r.d.stop()
		}
		return nil, err
	}
	defer r.d.stop()
	out.e2e("setup_s", setup, "s")
	for _, t := range tenants {
		out.attempted += int64(t.ring.hi-t.ring.lo) + int64(t.static.n+multiTotal(t.multi.n))
		t.ackHi.Store(t.ring.hi)
		t.delFrontier.Store(t.ring.lo)
	}
	for _, t := range tenants {
		if !t.cfg.Elastic() {
			continue
		}
		es, err := r.d.store.NsElasticStats(t.name)
		if err != nil {
			return nil, err
		}
		if len(es.Gens) < 2 {
			return nil, fmt.Errorf("elastic tenant has %d generations after set-up, want at least 2", len(es.Gens))
		}
	}

	// Fixed-count phase: writes only, from one connection, so the WAL
	// it leaves is the same for a seed whatever the scheduling.
	if err := r.d.store.Snapshot(); err != nil {
		return nil, err
	}
	runtime.GC()
	before, err := dirBytes(r.d.dir)
	if err != nil {
		return nil, err
	}
	wp := r.views(r.d.writer.Pipeline())
	var fixed loopStats
	for i := 0; i < sz.fixedSteps; i++ {
		if err := r.writeFlush(wp, &fixed, nil); err != nil {
			return nil, err
		}
	}
	r.total.merge(&fixed)
	if _, _, err := r.d.store.WALFlushedPos(); err != nil {
		return nil, err
	}
	after, err := dirBytes(r.d.dir)
	if err != nil {
		return nil, err
	}
	out.e2e("disk_bytes_per_write", float64(after-before)/float64(sz.fixedSteps*writeFlushKeys), "B")
	if err := r.fpr(out); err != nil {
		return nil, err
	}
	recov, err := recoverCopies(rc, r.d.store, r.d.dir, sopts, sz.recoverReps, out, func(st *server.Store) {
		for _, t := range tenants {
			verifyTenant("recovered "+t.label(), storeTenant{st, t.name}, t, &out.checks)
		}
	})
	if err != nil {
		return nil, err
	}
	out.e2e("recover_s", recov, "s")

	if err := steadyPhases(rc, out, r.steady, func() (reads, writes []float64) {
		reads, writes = r.readNs, r.writeNs
		r.readNs, r.writeNs = nil, nil
		return reads, writes
	}); err != nil {
		return nil, err
	}
	out.attempted += r.total.ops
	out.failed += r.total.failed
	out.opErr = r.total.err
	if r.total.falseNeg > 0 {
		out.checks.add(fmt.Errorf("served: %d present-key lookups answered absent during the steady phase", r.total.falseNeg))
	}
	for _, t := range tenants {
		verifyTenant(t.label(), clientTenant{r.d.reader, t.name}, t, &out.checks)
	}
	if rc.trace {
		runLadder(rc, out)
	}
	return out, nil
}

// load creates the namespaces and inserts every tenant's archive keys,
// initial live range and multi keys through the writer connection.
func (r *servedRun) load() error {
	c := r.d.writer
	for _, t := range r.tenants {
		if t.name != nil {
			if err := c.CreateNamespace(string(t.name), t.cfg); err != nil {
				return fmt.Errorf("create %s: %w", t.name, err)
			}
		}
	}
	v := r.views(c.Pipeline())
	p := v.p
	var batch [][]byte
	for ti, t := range r.tenants {
		q := v.q[ti]
		bulk := func(n int, key func(i int) []byte) error {
			for i := 0; i < n; i += loadBatch {
				batch = batch[:0]
				for j := i; j < min(i+loadBatch, n); j++ {
					batch = append(batch, key(j))
				}
				q.InsertBatch(batch)
				if p.Pending() == 8 {
					if err := flushOK(p); err != nil {
						return err
					}
				}
			}
			return flushOK(p)
		}
		if err := bulk(t.static.n, t.static.at); err != nil {
			return fmt.Errorf("load %s archive: %w", t.label(), err)
		}
		if err := bulk(int(t.ring.hi-t.ring.lo), func(i int) []byte { return t.ring.key(t.ring.lo + int64(i)) }); err != nil {
			return fmt.Errorf("load %s: %w", t.label(), err)
		}
		if err := insertMulti(func(k []byte) error { q.Insert(k); return nil }, t.multi); err != nil {
			return err
		}
		if err := flushOK(p); err != nil {
			return fmt.Errorf("load %s multi: %w", t.label(), err)
		}
	}
	return nil
}

// flushOK flushes p and fails on any request error.
func flushOK(p *client.Pipeline) error {
	res, err := p.Flush()
	if err != nil {
		return err
	}
	for _, x := range res {
		if x.Err != nil {
			return x.Err
		}
	}
	return nil
}

// views returns each tenant's queueing view of p, built once per loop.
func (r *servedRun) views(p *client.Pipeline) *tenantViews {
	v := &tenantViews{p: p}
	for _, t := range r.tenants {
		if t.name == nil {
			v.q = append(v.q, p)
		} else {
			v.q = append(v.q, p.Namespace(string(t.name)))
		}
	}
	return v
}

type tenantViews struct {
	p *client.Pipeline
	q []pipeOps // index-aligned with servedRun.tenants
}

// steady runs the reader and writer loops side by side for d.
func (r *servedRun) steady(d time.Duration, prog *progress, tr *tracer) {
	deadline := time.Now().Add(d)
	var reads, writes loopStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		v := r.views(r.d.writer.Pipeline())
		for time.Now().Before(deadline) {
			if err := r.writeFlush(v, &writes, tr); err != nil {
				writes.fail(err)
				return
			}
			prog.add(writeFlushKeys)
		}
	}()
	go func() {
		defer wg.Done()
		v := r.views(r.d.reader.Pipeline())
		cur := readCursor{present: splitmix64(r.rc.seed)}
		for time.Now().Before(deadline) {
			if err := r.readFlush(v, &cur, &reads, tr); err != nil {
				reads.fail(err)
				return
			}
			prog.add(readFlushKeys)
		}
	}()
	wg.Wait()
	r.readNs, r.writeNs = reads.ns, writes.ns
	r.total.merge(&reads)
	r.total.merge(&writes)
}

// writeFlush queues one write flush, sends it and books the results. The
// tenant of slot j is (j + flush number) mod tenants, so over as many
// flushes as there are tenants each tenant inserts and deletes equally.
func (r *servedRun) writeFlush(v *tenantViews, st *loopStats, tr *tracer) error {
	type pending struct {
		t    *tenant
		kind byte
	}
	var slots [2*writeSingles + 2*writeBatches]pending
	batch := make([][]byte, 0, batchKeys)
	q0 := time.Now()
	for j := range slots {
		ti := (j + r.flushes) % len(r.tenants)
		t, q := r.tenants[ti], v.q[ti]
		switch {
		case j < writeSingles:
			q.Insert(t.ring.key(t.ring.hi))
			t.ring.hi++
			slots[j] = pending{t, wire.OpInsert}
		case j < 2*writeSingles:
			t.ring.lo++
			t.delFrontier.Store(t.ring.lo)
			q.Delete(t.ring.key(t.ring.lo - 1))
			slots[j] = pending{t, wire.OpDelete}
		case j < 2*writeSingles+writeBatches:
			q.InsertBatch(t.ring.span(t.ring.hi, batchKeys, batch))
			t.ring.hi += batchKeys
			slots[j] = pending{t, wire.OpInsertBatch}
		default:
			t.ring.lo += batchKeys
			t.delFrontier.Store(t.ring.lo)
			q.DeleteBatch(t.ring.span(t.ring.lo-batchKeys, batchKeys, batch))
			slots[j] = pending{t, wire.OpDeleteBatch}
		}
	}
	r.flushes++
	q1 := time.Now()
	res, err := v.p.Flush()
	q2 := time.Now()
	if err != nil {
		return err
	}
	for j, x := range res {
		switch {
		case x.Err != nil:
			st.fail(x.Err)
		case slots[j].kind == wire.OpDeleteBatch:
			for _, ok := range x.Bools {
				if !ok {
					st.fail(errors.New("batch delete of a live key reported not removed"))
				}
			}
		}
	}
	for _, t := range r.tenants {
		t.ackHi.Store(t.ring.hi)
	}
	st.ns = append(st.ns, float64(q2.Sub(q1)))
	st.ops += writeFlushKeys
	book(tr, "client.write_flush", q0, q1, q2, writeFlushKeys)
	return nil
}

// readCursor walks the keys the reader probes: present keys in order
// through the safely live range (sequential in the key arena, so the
// benchmark's own key fetches stay out of the cache-miss budget), absent
// keys in order through the never-inserted stream.
type readCursor struct {
	present uint64
	absent  int
}

// readFlush queues one read flush: present keys are drawn from the newest
// half of each tenant's acknowledged live range, absent keys from the
// never-inserted stream. A present key answering absent is a false
// negative unless a delete for it may have been sent by the time the
// answer came back.
func (r *servedRun) readFlush(v *tenantViews, cur *readCursor, st *loopStats, tr *tracer) error {
	type probe struct {
		t   *tenant
		idx int64 // -1: absent key
	}
	var probes [readFlushKeys]probe
	pick := func(t *tenant) int64 {
		hi := t.ackHi.Load()
		lo := max(hi-int64(t.ring.keys.n)/3, t.delFrontier.Load())
		cur.present++
		return lo + int64(cur.present%uint64(hi-lo))
	}
	n := 0
	var batch [batchKeys][]byte
	q0 := time.Now()
	for j := 0; j < readSingles+readBatches; j++ {
		ti := j % len(r.tenants)
		t, q := r.tenants[ti], v.q[ti]
		if j < readSingles {
			if j%2 == 0 {
				probes[n] = probe{t, pick(t)}
				q.Contains(t.ring.key(probes[n].idx))
			} else {
				probes[n] = probe{t, -1}
				q.Contains(r.absent.at(cur.absent))
				cur.absent = (cur.absent + 1) % r.absent.n
			}
			n++
			continue
		}
		for b := 0; b < batchKeys; b++ {
			if b%2 == 0 {
				probes[n] = probe{t, pick(t)}
				batch[b] = t.ring.key(probes[n].idx)
			} else {
				probes[n] = probe{t, -1}
				batch[b] = r.absent.at(cur.absent)
				cur.absent = (cur.absent + 1) % r.absent.n
			}
			n++
		}
		q.ContainsBatch(batch[:])
	}
	q1 := time.Now()
	res, err := v.p.Flush()
	q2 := time.Now()
	if err != nil {
		return err
	}
	answers := make([]bool, 0, readFlushKeys)
	for _, x := range res {
		if x.Err != nil {
			return x.Err
		}
		if x.Op == wire.OpContains {
			answers = append(answers, x.Bool)
		} else {
			answers = append(answers, x.Bools...)
		}
	}
	for i, pr := range probes {
		if pr.idx >= 0 && !answers[i] && pr.idx >= pr.t.delFrontier.Load() {
			st.falseNeg++
		}
	}
	st.ns = append(st.ns, float64(q2.Sub(q1)))
	st.ops += readFlushKeys
	book(tr, "client.read_flush", q0, q1, q2, readFlushKeys)
	return nil
}

// book records a flush's spans: queueing (client.queue) and the round
// trip (client.flush) under one parent.
func book(tr *tracer, name string, q0, q1, q2 time.Time, keys int64) {
	if tr == nil {
		return
	}
	parent := tr.span(name, 0, q0, q2, keys)
	tr.span("client.queue", parent, q0, q1, keys)
	tr.span("client.flush", parent, q1, q2, keys)
}

// fpr probes every tenant with the never-inserted keys, reports the
// overall positive share, and checks each tenant against Eq. 4-5: the
// default filter, the plain namespace and the window (whose keys all sit
// in its head generation) as one MPCBF, the elastic chain generation by
// generation from its own marshaled state.
func (r *servedRun) fpr(out *outcome) error {
	sz := r.rc.sizes
	pos, total := 0, 0
	var batch [][]byte
	for _, t := range r.tenants {
		tp := 0
		for i := 0; i < r.absent.n; i += loadBatch {
			batch = r.absent.slice(i, min(i+loadBatch, r.absent.n), batch)
			vs, err := clientTenant{r.d.reader, t.name}.containsBatch(batch)
			if err != nil {
				return err
			}
			for _, v := range vs {
				if v {
					tp++
				}
			}
		}
		pos += tp
		total += r.absent.n
		what, observed := r.rc.workload+" "+t.label(), float64(tp)/float64(r.absent.n)
		if t.cfg.Elastic() {
			blob, err := r.d.store.NsMarshal(t.name)
			if err != nil {
				return err
			}
			model, err := chainModelFPR(blob)
			if err != nil {
				return err
			}
			out.checks.add(checkFPR(what, observed, model))
			continue
		}
		o := mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population, Seed: uint32(r.rc.seed)}
		shards := sz.shards
		if t.name != nil {
			o = mpcbf.Options{MemoryBits: int(t.cfg.MemoryBits), ExpectedItems: int(t.cfg.ExpectedItems), HashFunctions: 3}
		}
		geo, err := shardGeometry(o, shards)
		if err != nil {
			return err
		}
		live := int(t.ring.hi-t.ring.lo) + multiTotal(t.multi.n)
		out.checks.add(checkFPR(what, observed, modelFPR(geo, live/shards)))
	}
	out.attempted += int64(total)
	out.e2e("fpr", float64(pos)/float64(total), "ratio")
	return nil
}

// tenantReader is the read surface the end-of-run checks need, over the
// live daemon (clientTenant) or a recovered store (storeTenant).
type tenantReader interface {
	containsBatch(keys [][]byte) ([]bool, error)
	estimate(key []byte) (int, error)
	length() (int, error)
}

type clientTenant struct {
	c    *client.Client
	name []byte
}

func (c clientTenant) containsBatch(keys [][]byte) ([]bool, error) {
	if c.name == nil {
		return c.c.ContainsBatch(keys)
	}
	return c.c.Namespace(string(c.name)).ContainsBatch(keys)
}

func (c clientTenant) estimate(key []byte) (int, error) {
	if c.name == nil {
		return c.c.EstimateCount(key)
	}
	return c.c.Namespace(string(c.name)).EstimateCount(key)
}

func (c clientTenant) length() (int, error) {
	if c.name == nil {
		return c.c.Len()
	}
	return c.c.Namespace(string(c.name)).Len()
}

type storeTenant struct {
	st   *server.Store
	name []byte
}

func (s storeTenant) containsBatch(keys [][]byte) ([]bool, error) {
	if s.name == nil {
		return s.st.ContainsBatch(keys), nil
	}
	return s.st.NsContainsBatch(s.name, keys)
}

func (s storeTenant) estimate(key []byte) (int, error) {
	if s.name == nil {
		return s.st.EstimateCount(key), nil
	}
	return s.st.NsEstimateCount(s.name, key)
}

func (s storeTenant) length() (int, error) {
	if s.name == nil {
		return s.st.Len(), nil
	}
	return s.st.NsLen(s.name), nil
}

// verifyTenant checks one tenant against the benchmark's record: every
// live and archive key present, Len equal to what was inserted minus
// what was deleted, and no multi key undercounted.
func verifyTenant(what string, tr tenantReader, t *tenant, v *verdict) {
	var batch [][]byte
	check := func(kind string, n int, key func(i int) []byte) {
		missing := 0
		for i := 0; i < n; i += loadBatch {
			batch = batch[:0]
			for j := i; j < min(i+loadBatch, n); j++ {
				batch = append(batch, key(j))
			}
			vs, err := tr.containsBatch(batch)
			if err != nil {
				v.add(fmt.Errorf("%s: contains: %w", what, err))
				return
			}
			for _, ok := range vs {
				if !ok {
					missing++
				}
			}
		}
		if missing > 0 {
			v.add(fmt.Errorf("%s: %d of %d %s keys answered absent (false negatives)", what, missing, n, kind))
		}
	}
	check("live", int(t.ring.hi-t.ring.lo), func(i int) []byte { return t.ring.key(t.ring.lo + int64(i)) })
	check("archive", t.static.n, t.static.at)
	check("multi", t.multi.n, t.multi.at)
	n, err := tr.length()
	if err != nil {
		v.add(fmt.Errorf("%s: len: %w", what, err))
	} else {
		v.add(checkLen(what, n, int(t.ring.hi-t.ring.lo)+t.static.n+multiTotal(t.multi.n)))
	}
	checkEstimates(what, t.multi, tr.estimate, t.cfg.Elastic(), v)
}
