package main

import "encoding/binary"

// keyLen is the size of every generated key. Fixed-length keys make the
// WAL's bytes per record, and so disk_bytes_per_write, a constant of the
// program rather than of the seed.
const keyLen = 16

// Key streams. A stream tag is folded into every key, so keys of
// different streams never collide and an absent-stream key is never
// inserted by any phase.
const (
	streamLive   = 0x10 // churned population, one sub-stream per writer/tenant
	streamMulti  = 0x20 // keys inserted 1..3 times, never deleted
	streamStatic = 0x30 // elastic archive keys, never deleted
	streamAbsent = 0x40 // never inserted: FPR probes
)

// splitmix64 is the finaliser of SplitMix64: a bijection on uint64 with
// full avalanche, so sequential indices give unrelated key bytes.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// keyset is a flat arena of n keys: one allocation, no per-key slice
// headers, so a multi-million-key population costs 16 bytes a key.
type keyset struct {
	buf []byte
	n   int
}

// genKeys builds keys i = 0..n-1 of (seed, stream, sub). The same
// arguments always give the same bytes.
func genKeys(seed uint64, stream, sub byte, n int) keyset {
	ks := keyset{buf: make([]byte, n*keyLen), n: n}
	tag := uint64(stream)<<56 | uint64(sub)<<48
	for i := 0; i < n; i++ {
		b := ks.buf[i*keyLen : (i+1)*keyLen]
		binary.LittleEndian.PutUint64(b[0:8], splitmix64(seed^tag^uint64(i)))
		binary.LittleEndian.PutUint64(b[8:16], tag|uint64(i))
	}
	return ks
}

// at returns key i; the capacity is clipped so an append by a callee
// cannot spill into the next key.
func (ks keyset) at(i int) []byte {
	return ks.buf[i*keyLen : (i+1)*keyLen : (i+1)*keyLen]
}

// slice returns keys [from, to) as a [][]byte view into the arena.
func (ks keyset) slice(from, to int, dst [][]byte) [][]byte {
	dst = dst[:0]
	for i := from; i < to; i++ {
		dst = append(dst, ks.at(i))
	}
	return dst
}

// ring is one writer's (or tenant's) churned population: a key arena of
// size n reused cyclically. Indices grow without bound; index i names key
// i mod n. The live set is always the index range [lo, hi), of constant
// width while the churn runs, so the benchmark's model of the live set is
// two integers.
type ring struct {
	keys   keyset
	lo, hi int64
}

func (r *ring) key(i int64) []byte { return r.keys.at(int(i % int64(r.keys.n))) }

// span returns the keys of indices [from, from+n) as a view into the arena.
func (r *ring) span(from int64, n int, dst [][]byte) [][]byte {
	dst = dst[:0]
	for i := from; i < from+int64(n); i++ {
		dst = append(dst, r.key(i))
	}
	return dst
}

// rng is xorshift64*: the benchmark's own generator for the kernel probe's
// word loads and slots, independent of any generator in the program.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	*r = rng(x)
	return x * 0x2545f4914f6cdd1d
}

func newRNG(seed uint64, sub uint64) rng {
	return rng(splitmix64(seed^sub<<32) | 1)
}
