package main

import (
	"errors"
	"runtime"
	"time"
)

// steadyPhases runs a workload's steady phase and records its metrics.
//
// Untraced, it is one phase of rc.seconds: ops_per_s is the
// interquartile mean of the fixed-work windows' rates, read_p50_us and
// write_p50_us the medians of the per-op times (churn blocks) or
// per-flush times (pipelines) drain returns, and cpu_us_per_op the
// process's CPU time over the phase per op.
//
// Traced, it is four segments of rc.seconds/4, alternately untraced and
// traced, so host drift falls on both sides alike:
// bench.trace_overhead_pct compares their window rates, and the proc.*
// per-op costs come from the untraced segments.
func steadyPhases(rc runConfig, out *outcome, run func(d time.Duration, prog *progress, tr *tracer), drain func() (reads, writes []float64)) error {
	total := time.Duration(rc.seconds * float64(time.Second))
	if !rc.trace {
		runtime.GC()
		u0 := readUsage(false)
		prog := newProgress(rc.sizes.window)
		run(total, prog, nil)
		cost := costSince(u0, prog.done.Load())
		reads, writes := drain()
		rates := prog.rates()
		if len(rates) == 0 || len(reads) == 0 || len(writes) == 0 {
			return errors.New("steady phase too short for one measured window")
		}
		out.e2e("ops_per_s", interquartileMean(rates), "1/s")
		out.e2e("read_p50_us", median(reads)/1e3, "us")
		out.e2e("write_p50_us", median(writes)/1e3, "us")
		out.e2e("cpu_us_per_op", cost.cpuUsPerOp, "us")
		return nil
	}
	var plain, traced []float64
	var sum phaseCost
	for seg := 0; seg < 4; seg++ {
		runtime.GC()
		u0 := readUsage(true)
		prog := newProgress(rc.sizes.window)
		var tr *tracer
		if seg%2 == 1 {
			tr = rc.tracer
		}
		run(total/4, prog, tr)
		c := costSince(u0, prog.done.Load())
		drain()
		if tr != nil {
			traced = append(traced, prog.rates()...)
			continue
		}
		plain = append(plain, prog.rates()...)
		sum.ctxPerOp += c.ctxPerOp / 2
		sum.syscallsPerOp += c.syscallsPerOp / 2
		sum.allocBytesPerOp += c.allocBytesPerOp / 2
		sum.gcPerMop += c.gcPerMop / 2
	}
	if len(plain) == 0 || len(traced) == 0 {
		return errors.New("traced steady phase too short for one measured window")
	}
	u, t := interquartileMean(plain), interquartileMean(traced)
	out.layer("bench.trace_overhead_pct", 100*(u-t)/u, "%")
	out.layer("proc.alloc_bytes_per_op", sum.allocBytesPerOp, "B")
	out.layer("proc.gc_per_mop", sum.gcPerMop, "count")
	out.layer("proc.syscalls_per_op", sum.syscallsPerOp, "count")
	out.layer("proc.ctx_switches_per_op", sum.ctxPerOp, "count")
	return nil
}
