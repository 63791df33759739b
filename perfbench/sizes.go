package main

// sizes is the make-up of one workload's inputs. All filters run at 16
// bits per live key (memoryBits = 16 * population), the paper's
// operating point; the README sets the sizes against the host's caches.
type sizes struct {
	memoryBits  int // the default filter, or each plain/window tenant
	population  int // live keys (per tenant for served_tenants)
	shards      int
	multi       int // keys inserted 1..3 times, for the EstimateCount check
	probes      int // never-inserted keys probed for fpr
	fixedSteps  int // churn steps per writer (lib, store) or write flushes (served)
	block       int // churn steps per timed block
	window      int64
	setupReps   int
	recoverReps int
}

func sizesFor(name string, tiny bool) sizes {
	s := sizes{shards: 16, multi: 3000, probes: 1 << 20, block: 256, window: 1 << 15, setupReps: 7, recoverReps: 9}
	switch name {
	case "lib_churn":
		// 4 MiB filter; an in-memory recovery takes a few ms, so more of
		// them fit the time one store recovery takes.
		s.memoryBits, s.population, s.fixedSteps, s.recoverReps = 1<<25, 1<<21, 1<<17, 61
	case "store_churn":
		s.memoryBits, s.population, s.fixedSteps, s.block = 1<<25, 1<<21, 1<<13, 64 // 4 MiB
	case "served_mixed":
		s.memoryBits, s.population, s.fixedSteps, s.probes = 1<<25, 1<<21, 1<<7, 1<<19 // 4 MiB
	case "served_tenants":
		s.memoryBits, s.population, s.fixedSteps, s.probes = 1<<23, 1<<19, 1<<7, 1<<19 // 1 MiB per tenant
	}
	if tiny {
		s.memoryBits, s.population = 1<<20, 1<<16
		s.multi, s.probes, s.fixedSteps, s.block, s.window = 30, 1<<16, 1<<6, 16, 1<<10
		s.setupReps, s.recoverReps = 1, 1
	}
	return s
}
