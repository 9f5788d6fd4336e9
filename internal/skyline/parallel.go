package skyline

import (
	"runtime"
	"sync"
)

// The machine part of a crowd-enabled query is quadratic in the
// cardinality (the index build, oracle grading). The constructions are
// embarrassingly parallel across target tuples, so they shard across
// CPUs; results are deterministic regardless of scheduling because each
// shard owns disjoint output slots.

// parallelThreshold is the tuple count below which sharding costs more
// than it saves. It is a variable (not a const) so tests can lower it to
// drive the sharded paths, race detector included, on small inputs.
var parallelThreshold = 2048

// maxWorkers caps the build/derivation parallelism; 0 means
// runtime.NumCPU(). See setMaxWorkers.
var maxWorkers = 0

// setMaxWorkers caps the number of workers the sharded kernels and the
// parallel index build use (0 restores the runtime.NumCPU() default) and
// returns the previous cap. Every kernel writes disjoint output slots, so
// the result is bit-for-bit identical for every worker count — the knob
// exists for the differential tests that prove that invariant and for
// BenchmarkIndexBuild's workers= rows. It is not synchronized with
// in-flight builds; set it between builds only.
func setMaxWorkers(n int) (prev int) {
	prev = maxWorkers
	maxWorkers = n
	return prev
}

// workerCount returns the effective worker cap.
func workerCount() int {
	if maxWorkers > 0 {
		return maxWorkers
	}
	return runtime.NumCPU()
}

// shard runs fn over [0, n) in parallel chunks and waits for completion.
func shard(n int, fn func(lo, hi int)) { shardSized(n, n, fn) }

// shardSized runs fn over [0, units) in parallel chunks, deciding whether
// to fan out from workload (the number of tuples the pass touches) rather
// than from the unit count. Passes whose natural partition is coarser
// than tuples — the word-sharded dominating-set scatter partitions bitmap
// words, each worth 64 tuples — stay parallel when the work justifies it
// even though their unit count alone would sit under the threshold.
func shardSized(units, workload int, fn func(lo, hi int)) {
	workers := workerCount()
	if workers > units {
		workers = units
	}
	if workers <= 1 || workload < parallelThreshold {
		fn(0, units)
		return
	}
	var wg sync.WaitGroup
	chunk := (units + workers - 1) / workers
	for lo := 0; lo < units; lo += chunk {
		hi := lo + chunk
		if hi > units {
			hi = units
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
