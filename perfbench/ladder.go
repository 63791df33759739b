package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	mpcbf "repro"
	"repro/elastic"
	"repro/internal/core"
	"repro/internal/hcbf"
	"repro/server"
	"repro/server/wire"
	"repro/window"
)

// The ladder probes time each layer's public functions from outside, in
// blocks of ladderBlock calls (the median block gives the per-call
// figure), so that adjacent rungs differ by one layer's own cost. Every
// rung uses the traced workload's own filter geometry and population
// (for served_tenants, one tenant's), so the rungs compare like with like
// and describe the workload they are reported with.
const (
	ladderBlock  = 4096
	ladderBlocks = 24
	ladderRTTs   = 2000 // unpipelined round trips per RTT probe
)

// sink keeps probed results alive so the compiler cannot drop the calls.
var sink uint64

// blockMedian times fn(i) for ladderBlocks blocks of calls each and
// returns the median per-call time in ns.
func blockMedian(calls int, fn func(i int)) float64 {
	var per []float64
	i := 0
	for b := 0; b < ladderBlocks; b++ {
		t0 := time.Now()
		for j := 0; j < calls; j++ {
			fn(i)
			i++
		}
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	return median(per)
}

// rungTarget is what the filter rungs call: internal/core's Filter,
// mpcbf.Sharded and server.Store all have it.
type rungTarget interface {
	Insert(key []byte) error
	Delete(key []byte) error
	Contains(key []byte) bool
}

// probeRung records <layer>.contains_ns over present (r's live range)
// and never-inserted keys alternately, then <layer>.insert_ns and
// <layer>.delete_ns from alternating timed blocks of ladderBlock inserts
// of new keys and as many deletes of the oldest, so the population never
// drifts more than one block from where it was loaded.
func probeRung(out *outcome, layer string, f rungTarget, r *ring, absent keyset) error {
	n := r.hi - r.lo
	out.layer(layer+".contains_ns", blockMedian(ladderBlock, func(i int) {
		k := absent.at(i % absent.n)
		if i%2 == 0 {
			k = r.key(r.lo + int64(i)%n)
		}
		if f.Contains(k) {
			sink++
		}
	}), "ns")
	var ins, dels []float64
	var errs []error
	for b := 0; b < ladderBlocks; b++ {
		t0 := time.Now()
		for j := 0; j < ladderBlock; j++ {
			if err := f.Insert(r.key(r.hi)); err != nil {
				errs = append(errs, err)
			}
			r.hi++
		}
		t1 := time.Now()
		for j := 0; j < ladderBlock; j++ {
			if err := f.Delete(r.key(r.lo)); err != nil {
				errs = append(errs, err)
			}
			r.lo++
		}
		ins = append(ins, float64(t1.Sub(t0))/ladderBlock)
		dels = append(dels, float64(time.Since(t1))/ladderBlock)
	}
	out.layer(layer+".insert_ns", median(ins), "ns")
	out.layer(layer+".delete_ns", median(dels), "ns")
	return errors.Join(errs...)
}

// runLadder runs every per-layer probe and records its metrics; a probe
// that cannot run fails the run's checks.
func runLadder(rc runConfig, out *outcome) {
	probes := []struct {
		name string
		fn   func(rc runConfig, out *outcome) error
	}{
		{"kernel", probeKernel},
		{"core", probeCore},
		{"sharded", probeSharded},
		{"window_elastic", probeWindowElastic},
		{"store_daemon", probeStoreDaemon},
		{"wal_fsync", probeFsync},
		{"wire", probeWire},
		{"loopback", probeLoopback},
	}
	for _, p := range probes {
		runtime.GC()
		t0 := time.Now()
		err := p.fn(rc, out)
		rc.tracer.span("ladder."+p.name, 0, t0, time.Now(), 1)
		if err != nil {
			out.checks.add(fmt.Errorf("ladder probe %s: %w", p.name, err))
		}
	}
}

// ladderGeometry is the filter every rung is probed at: the workload's.
func ladderGeometry(rc runConfig) (mpcbf.Options, sizes) {
	sz := rc.sizes
	return mpcbf.Options{MemoryBits: sz.memoryBits, ExpectedItems: sz.population, Seed: uint32(rc.seed)}, sz
}

// probeKernel times the HCBF word kernel on words loaded to the
// per-word population of one of the workload's shards.
func probeKernel(rc runConfig, out *outcome) error {
	o, sz := ladderGeometry(rc)
	geo, err := shardGeometry(o, sz.shards)
	if err != nil {
		return err
	}
	words := make([]uint64, geo.Words)
	rnd := newRNG(rc.seed, 1)
	b1 := geo.FirstLevelBits
	for n := 0; n < sz.population/sz.shards; n++ {
		w := &words[rnd.next()%uint64(len(words))]
		for k := 0; k < geo.HashFunctions; k++ {
			if hcbf.Used64(*w, b1) < 64 {
				*w, _ = hcbf.Inc64(*w, b1, int(rnd.next()%uint64(b1)))
			}
		}
	}
	idx := make([]uint32, ladderBlock*ladderBlocks)
	slots := make([]uint8, len(idx))
	for i := range idx {
		idx[i] = uint32(rnd.next() % uint64(len(words)))
		slots[i] = uint8(rnd.next() % uint64(b1))
	}
	out.layer("hcbf.count_ns", blockMedian(ladderBlock, func(i int) {
		sink += uint64(hcbf.Count64(words[idx[i]], b1, int(slots[i])))
	}), "ns")
	out.layer("hcbf.incdec_ns", blockMedian(ladderBlock, func(i int) {
		x := words[idx[i]]
		if hcbf.Used64(x, b1) < 64 {
			x, _ = hcbf.Inc64(x, b1, int(slots[i]))
			x, _, _ = hcbf.Dec64(x, b1, int(slots[i]))
		}
		sink += x
	}), "ns")
	return nil
}

// probeCore times internal/core with the geometry and population of one
// of the workload's shards, and reads its Probe cost model and overflow
// counters.
func probeCore(rc runConfig, out *outcome) error {
	o, sz := ladderGeometry(rc)
	n := sz.population / sz.shards
	f, err := core.New(core.Config{MemoryBits: o.MemoryBits / sz.shards, ExpectedN: n, Seed: o.Seed, Overflow: core.OverflowSaturate})
	if err != nil {
		return err
	}
	r := ring{keys: genKeys(rc.seed, streamLive, 200, n+ladderBlock*ladderBlocks), hi: int64(n)}
	absent := genKeys(rc.seed, streamAbsent, 200, ladderBlock)
	for i := r.lo; i < r.hi; i++ {
		if err := f.Insert(r.key(i)); err != nil {
			return err
		}
	}
	if err := probeRung(out, "core", f, &r, absent); err != nil {
		return err
	}
	var acc, bits int
	for i := 0; i < 2*ladderBlock; i++ {
		k := absent.at(i % absent.n)
		if i%2 == 0 {
			k = r.key(r.lo + int64(i)%int64(n))
		}
		_, st := f.Probe(k)
		acc += st.MemAccesses
		bits += st.HashBits
	}
	out.layer("core.mem_accesses_per_query", float64(acc)/float64(2*ladderBlock), "count")
	out.layer("core.hash_bits_per_query", float64(bits)/float64(2*ladderBlock), "count")
	out.layer("core.overflow_events", float64(f.OverflowEvents()), "count")
	out.layer("core.saturated_words", float64(f.SaturatedWords()), "count")
	return nil
}

// probeSharded times mpcbf.Sharded with the workload's geometry, and its
// ContainsBatch with served-sized batches and the store's worker setting.
func probeSharded(rc runConfig, out *outcome) error {
	o, sz := ladderGeometry(rc)
	f, err := mpcbf.NewSharded(o, sz.shards)
	if err != nil {
		return err
	}
	n := sz.population
	r := ring{keys: genKeys(rc.seed, streamLive, 201, n+ladderBlock*ladderBlocks), hi: int64(n)}
	absent := genKeys(rc.seed, streamAbsent, 201, ladderBlock)
	for i := r.lo; i < r.hi; i++ {
		if err := f.Insert(r.key(i)); err != nil {
			return err
		}
	}
	if err := probeRung(out, "mpcbf", f, &r, absent); err != nil {
		return err
	}
	var keys [][]byte
	perBatch := blockMedian(ladderBlock/batchKeys, func(i int) {
		keys = r.span(r.lo+int64(i*batchKeys)%int64(n-batchKeys), batchKeys, keys)
		f.ContainsBatch(keys, 0)
	})
	out.layer("mpcbf.contains_batch_ns_per_key", perBatch/batchKeys, "ns")
	return nil
}

// probeWindowElastic times Contains on a four-generation window and on an
// elastic chain grown once, holding the ladder's population.
func probeWindowElastic(rc runConfig, out *outcome) error {
	o, sz := ladderGeometry(rc)
	w, err := window.New(window.Options{Span: 24 * time.Hour, Generations: 4, Filter: o, Shards: sz.shards})
	if err != nil {
		return err
	}
	keys := genKeys(rc.seed, streamLive, 202, sz.population)
	absent := genKeys(rc.seed, streamAbsent, 202, ladderBlock)
	for i := 0; i < keys.n; i++ {
		if err := w.Insert(keys.at(i)); err != nil {
			return err
		}
	}
	contains := func(f func([]byte) bool) float64 {
		return blockMedian(ladderBlock, func(i int) {
			k := absent.at(i % absent.n)
			if i%2 == 0 {
				k = keys.at(i % keys.n)
			}
			if f(k) {
				sink++
			}
		})
	}
	out.layer("window.contains_ns", contains(w.Contains), "ns")

	eo := o
	eo.MemoryBits, eo.ExpectedItems = sz.memoryBits/2, sz.population/2
	el, err := elastic.New(elastic.Options{Filter: eo, Shards: sz.shards})
	if err != nil {
		return err
	}
	for i := 0; i < keys.n; i++ {
		if err := el.Insert(keys.at(i)); err != nil {
			return err
		}
		if el.NeedsGrow() {
			if err := el.Grow(); err != nil {
				return err
			}
		}
	}
	out.layer("elastic.contains_ns", contains(el.Contains), "ns")
	out.layer("elastic.generations", float64(el.Generations()), "count")
	return nil
}

// probeStoreDaemon runs the store, namespace, WAL and daemon rungs on one
// in-process daemon at SyncNever with 1-in-8 request sampling.
func probeStoreDaemon(rc runConfig, out *outcome) error {
	o, sz := ladderGeometry(rc)
	sopts := func(dir string) server.StoreOptions {
		return server.StoreOptions{Dir: dir, Filter: o, Shards: sz.shards, Sync: server.SyncNever, Log: discardLog}
	}
	dir := filepath.Join(rc.dir, "ladder-daemon")
	d, err := startDaemon(sopts(dir), 8)
	if err != nil {
		return err
	}
	defer d.stop()
	st := d.store
	plain := []byte("plain")
	if err := d.writer.CreateNamespace("plain", wire.NsConfig{MemoryBits: uint64(sz.memoryBits), ExpectedItems: uint64(sz.population), Shards: uint16(sz.shards), Seed: o.Seed}); err != nil {
		return err
	}
	r := ring{keys: genKeys(rc.seed, streamLive, 203, sz.population+ladderBlock*ladderBlocks), hi: int64(sz.population)}
	absent := genKeys(rc.seed, streamAbsent, 203, ladderBlock)
	var batch [][]byte
	p := d.writer.Pipeline()
	for i := r.lo; i < r.hi; i += loadBatch {
		batch = r.span(i, int(min(loadBatch, r.hi-i)), batch)
		p.InsertBatch(batch)
		p.Namespace("plain").InsertBatch(batch)
		if p.Pending() >= 8 || i+loadBatch >= r.hi {
			if err := flushOK(p); err != nil {
				return err
			}
		}
	}
	key := func(i int) []byte {
		if i%2 == 0 {
			return r.key(r.lo + int64(i)%int64(sz.population))
		}
		return absent.at(i % absent.n)
	}
	var nsErr error
	out.layer("ns.contains_ns", blockMedian(ladderBlock, func(i int) {
		ok, err := st.NsContains(plain, key(i))
		if err != nil {
			nsErr = err
		}
		if ok {
			sink++
		}
	}), "ns")
	if nsErr != nil {
		return nsErr
	}
	if err := probeRung(out, "store", st, &r, absent); err != nil {
		return err
	}

	// WAL framing and group commit under nproc concurrent writers, each
	// on its own key range.
	recs0, bytes0 := st.WALCum()
	commits0, _ := st.WALGroupStats()
	cs := newChurners(rc.seed^0x5a5a, runtime.NumCPU(), 2*ladderBlock*runtime.NumCPU(), absent)
	if err := loadChurn(st, cs, keyset{}); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *churner) {
			defer wg.Done()
			c.steps(st, ladderBlock)
		}(c)
	}
	wg.Wait()
	if _, failed, err := sumChurn(cs); failed > 0 {
		return err
	}
	recs1, bytes1 := st.WALCum()
	commits1, _ := st.WALGroupStats()
	out.layer("wal.bytes_per_record", float64(bytes1-bytes0)/float64(recs1-recs0), "B")
	out.layer("wal.records_per_commit", float64(recs1-recs0)/float64(max(commits1-commits0, 1)), "count")

	// Daemon round trips against the benchmark's own loopback echo.
	var rtts []float64
	for i := 0; i < ladderRTTs; i++ {
		t0 := time.Now()
		if _, err := d.reader.Contains(key(i)); err != nil {
			return err
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	out.layer("server.rtt_us", median(rtts), "us")
	out.layer("server.rtt_p99_us", quantile(rtts, 0.99), "us")

	// The daemon's own 1-in-8 stage sampling over a single-op mix; the
	// ring keeps the newest 128 sampled requests.
	for i := 0; i < 3*8*128; i++ {
		switch i % 3 {
		case 0:
			_, err = d.writer.Contains(key(i))
		case 1:
			err = d.writer.Insert(r.key(r.hi))
			r.hi++
		case 2:
			err = d.writer.Delete(r.key(r.lo))
			r.lo++
		}
		if err != nil {
			return err
		}
	}
	var dec, filt, wal, enc []float64
	for _, e := range d.srv.Tracer().Report().Recent {
		dec, filt, enc = append(dec, float64(e.DecodeNs)), append(filt, float64(e.FilterNs)), append(enc, float64(e.EncodeNs))
		if e.WALNs > 0 {
			wal = append(wal, float64(e.WALNs))
		}
	}
	out.layer("server.decode_ns", median(dec), "ns")
	out.layer("server.filter_ns", median(filt), "ns")
	out.layer("server.wal_ns", median(wal), "ns")
	out.layer("server.encode_ns", median(enc), "ns")

	// Pipeline queueing for the served write-flush shape, flushed untimed.
	p = d.writer.Pipeline()
	var queued time.Duration
	var queuedKeys int
	for round := 0; round < ladderBlocks; round++ {
		t0 := time.Now()
		for j := 0; j < writeSingles; j++ {
			p.Insert(r.key(r.hi))
			r.hi++
			p.Delete(r.key(r.lo))
			r.lo++
		}
		for j := 0; j < writeBatches; j++ {
			p.InsertBatch(r.span(r.hi, batchKeys, batch))
			r.hi += batchKeys
			p.DeleteBatch(r.span(r.lo, batchKeys, batch))
			r.lo += batchKeys
		}
		queued += time.Since(t0)
		queuedKeys += writeFlushKeys
		if err := flushOK(p); err != nil {
			return err
		}
	}
	out.layer("client.queue_ns_per_op", float64(queued)/float64(queuedKeys), "ns")

	// Replay: reopen a copy of this data directory.
	if _, _, err := st.WALFlushedPos(); err != nil {
		return err
	}
	cp := dir + "-copy"
	if err := copyDir(dir, cp); err != nil {
		return err
	}
	t0 := time.Now()
	re, err := server.OpenStore(sopts(cp))
	if err != nil {
		return err
	}
	dt := time.Since(t0)
	recs := re.Stats().ReplayedRecords
	out.layer("store.replayed_records", float64(recs), "count")
	out.layer("store.replay_records_per_s", float64(recs)/dt.Seconds(), "1/s")
	return closeAndRemove(re, cp)
}

// probeFsync runs a short SyncAlways phase, nproc writers of fsyncWrites
// inserts each, and reads the WAL's fsync histogram. For reference only:
// on a shared disk it measures the disk.
func probeFsync(rc runConfig, out *outcome) error {
	const fsyncWrites = 150
	o, sz := ladderGeometry(rc)
	dir := filepath.Join(rc.dir, "ladder-fsync")
	st, err := server.OpenStore(server.StoreOptions{Dir: dir, Filter: o, Shards: sz.shards, Sync: server.SyncAlways, Log: discardLog})
	if err != nil {
		return err
	}
	n := runtime.NumCPU()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			keys := genKeys(rc.seed, streamLive, byte(210+g), fsyncWrites)
			for i := 0; i < keys.n && errs[g] == nil; i++ {
				errs[g] = st.Insert(keys.at(i))
			}
		}(g)
	}
	wg.Wait()
	fsync, _ := st.WALHists()
	stats := st.Stats()
	out.layer("wal.fsync_p50_us", fsync.Quantile(0.5)/1e3, "us")
	out.layer("wal.fsync_p95_us", fsync.Quantile(0.95)/1e3, "us")
	out.layer("wal.records_per_fsync", float64(stats.WALRecords)/float64(max(stats.WALSyncs, 1)), "count")
	return errors.Join(append(errs, closeAndRemove(st, dir))...)
}

// probeWire times encoding and decoding the served read-flush request
// shapes: single Contains and ContainsBatch of batchKeys.
func probeWire(rc runConfig, out *outcome) error {
	keys := genKeys(rc.seed, streamLive, 204, ladderBlock)
	var batch [][]byte
	var buf []byte
	var payloads [][]byte
	for i := 0; i < readSingles+readBatches; i++ {
		if i < readSingles {
			payloads = append(payloads, wire.AppendKeyRequest(nil, wire.OpContains, keys.at(i)))
		} else {
			batch = keys.slice(i*batchKeys%(keys.n-batchKeys), i*batchKeys%(keys.n-batchKeys)+batchKeys, batch)
			payloads = append(payloads, wire.AppendBatchRequest(nil, wire.OpContainsBatch, batch))
		}
	}
	// One "call" is one whole read flush's worth of requests; per key is
	// that over readFlushKeys.
	const flushes = 64
	encode := blockMedian(flushes, func(i int) {
		buf = buf[:0]
		for j := 0; j < readSingles; j++ {
			buf = wire.AppendKeyRequest(buf, wire.OpContains, keys.at((i+j)%keys.n))
		}
		for j := 0; j < readBatches; j++ {
			buf = wire.AppendBatchRequest(buf, wire.OpContainsBatch, batch)
		}
		sink += uint64(len(buf))
	})
	out.layer("wire.encode_ns_per_key", encode/readFlushKeys, "ns")
	keyBuf := make([][]byte, 0, batchKeys)
	var decErr error
	decode := blockMedian(flushes, func(int) {
		for _, p := range payloads {
			req, err := wire.DecodeRequestInto(p, keyBuf)
			if err != nil {
				decErr = err
			}
			sink += uint64(len(req.Keys))
		}
	})
	out.layer("wire.decode_ns_per_key", decode/readFlushKeys, "ns")
	return decErr
}

// probeLoopback measures the benchmark's own TCP echo over loopback with
// the frame sizes of a Contains request and its response: the floor the
// daemon's round trip stands on.
func probeLoopback(rc runConfig, out *outcome) error {
	key := genKeys(rc.seed, streamLive, 205, 1).at(0)
	req := make([]byte, 4+len(wire.AppendKeyRequest(nil, wire.OpContains, key)))
	resp := make([]byte, 4+len(wire.AppendBool(wire.AppendOK(nil), true)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	echoed := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		in := make([]byte, len(req))
		for {
			if _, err := io.ReadFull(c, in); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil
				}
				echoed <- err
				return
			}
			if _, err := c.Write(resp); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return err
	}
	var rtts []float64
	in := make([]byte, len(resp))
	for i := 0; i < ladderRTTs && err == nil; i++ {
		t0 := time.Now()
		if _, err = c.Write(req); err == nil {
			_, err = io.ReadFull(c, in)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	c.Close()
	ln.Close()
	err = errors.Join(err, <-echoed)
	out.layer("loopback.rtt_us", median(rtts), "us")
	return err
}
