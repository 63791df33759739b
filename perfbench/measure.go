package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// progress splits a steady phase into windows of a fixed amount of work
// across all goroutines: each caller adds its completed operations, and
// whoever carries the total across a multiple of window stamps the
// clock. A window's rate is window/(stamp_k - stamp_k-1); a robust mean
// of the windows is immune to the descheduling pauses a wall-clock total
// picks up on a small shared host.
type progress struct {
	window int64
	start  time.Time
	done   atomic.Int64
	mu     sync.Mutex
	stamps []time.Duration // stamp k: when total work first reached (k+1)*window
}

func newProgress(window int64) *progress {
	return &progress{window: window, start: time.Now()}
}

func (p *progress) add(n int64) {
	total := p.done.Add(n)
	before := total - n
	if total/p.window == before/p.window {
		return
	}
	at := time.Since(p.start)
	p.mu.Lock()
	for k := before/p.window + 1; k <= total/p.window; k++ {
		p.stamps = append(p.stamps, at)
	}
	p.mu.Unlock()
}

// rates returns the throughput of every complete window, in ops/s. The
// first window is dropped: it includes the goroutines' start-up.
func (p *progress) rates() []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for k := 2; k < len(p.stamps); k++ {
		if d := p.stamps[k] - p.stamps[k-1]; d > 0 {
			out = append(out, float64(p.window)/d.Seconds())
		}
	}
	return out
}

// interquartileMean is the mean of the values between the first and third
// quartiles. Like the median it ignores stalled and lucky windows; unlike
// the median it moves smoothly when a shared host alternates between a
// fast and a slow regime within a run, which the median jumps between.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by the method of Python's
// statistics.quantiles (the default, 'exclusive'): position q*(n+1),
// 1-based, interpolated and clamped to the data. At q = 0.5 it is the
// ordinary median.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)+1)
	j := int(pos)
	switch {
	case j < 1:
		return s[0]
	case j >= len(s):
		return s[len(s)-1]
	}
	return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
}

// usage is a point-in-time reading of this process's resource counters.
type usage struct {
	cpu      time.Duration // user + sys
	ctxSw    int64         // voluntary + involuntary context switches
	syscalls int64         // syscr + syscw from /proc/self/io (-1 if unreadable)
	maxRSSKB int64
	alloc    uint64 // cumulative heap bytes allocated
	gcs      uint32
}

// readUsage samples getrusage and /proc/self/io; withMem additionally
// reads the runtime's allocation counters, which stops the world, so it
// is only asked for at phase boundaries.
func readUsage(withMem bool) usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	u := usage{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxSw:    ru.Nvcsw + ru.Nivcsw,
		maxRSSKB: ru.Maxrss,
		syscalls: procSyscalls(),
	}
	if withMem {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.alloc, u.gcs = ms.TotalAlloc, ms.NumGC
	}
	return u
}

// procSyscalls returns syscr+syscw of this process, or -1 where
// /proc/self/io does not exist.
func procSyscalls() int64 {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return -1
	}
	defer f.Close()
	var n int64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), ":")
		if !ok || (name != "syscr" && name != "syscw") {
			continue
		}
		v, err := strconv.ParseInt(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return -1
		}
		n += v
	}
	return n
}

// since reports the per-op cost of the interval from u0 to now.
type phaseCost struct {
	cpuUsPerOp      float64
	ctxPerOp        float64
	syscallsPerOp   float64
	allocBytesPerOp float64
	gcPerMop        float64
}

func costSince(u0 usage, ops int64) phaseCost {
	u1 := readUsage(true)
	if ops <= 0 {
		ops = 1
	}
	n := float64(ops)
	c := phaseCost{
		cpuUsPerOp:      float64(u1.cpu-u0.cpu) / float64(time.Microsecond) / n,
		ctxPerOp:        float64(u1.ctxSw-u0.ctxSw) / n,
		allocBytesPerOp: float64(u1.alloc-u0.alloc) / n,
		gcPerMop:        float64(u1.gcs-u0.gcs) / n * 1e6,
	}
	if u0.syscalls >= 0 && u1.syscalls >= 0 {
		c.syscallsPerOp = float64(u1.syscalls-u0.syscalls) / n
	}
	return c
}

// peakRSSMiB is the process's own high-water resident set.
func peakRSSMiB() float64 { return float64(readUsage(false).maxRSSKB) / 1024 }

// timeReps runs fn reps times and returns the median duration in
// seconds: set-up and recovery are measured this way, so one descheduled
// repetition does not move the figure. Before each repetition the heap is
// collected and its free memory handed back to the OS, so every
// repetition pays for faulting in the memory it allocates alike, as a
// freshly started process does.
func timeReps(reps int, fn func(rep int) (time.Duration, error)) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		debug.FreeOSMemory()
		d, err := fn(i)
		if err != nil {
			return 0, err
		}
		ds = append(ds, d.Seconds())
	}
	return median(ds), nil
}
