// Package parallel is the repository's shared compute pool: a bounded
// fork-join primitive that the numeric kernels (internal/tensor), the latent
// extraction data plane (internal/cl) and the experiment harness
// (internal/exp) all shard work through.
//
// The design goals, in order:
//
//  1. Determinism. For splits an index range into contiguous chunks and every
//     chunk computes exactly what the serial loop would; only the scheduling
//     of chunks varies. Callers that write disjoint output regions per index
//     therefore produce bit-identical results at any worker count.
//  2. Bounded concurrency. A single process-wide token semaphore caps the
//     number of extra goroutines at Workers()-1 no matter how deeply For
//     calls nest (experiment grid → multi-seed runs → GEMM shards). When no
//     token is available a chunk runs inline on the caller's goroutine, so
//     nesting can never deadlock and the hot path degrades gracefully to the
//     serial loop.
//  3. Zero cost when serial. With Workers() == 1 (the default on a
//     single-core host) For is a direct function call: no goroutines, no
//     channels, no allocations.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// state bundles the worker count with its token semaphore so both swap
// atomically under SetWorkers.
type state struct {
	workers int
	// tokens holds workers-1 tokens: the caller's goroutine is the implicit
	// first worker, extra goroutines each hold one token while running.
	tokens chan struct{}
}

var current atomic.Pointer[state]

func init() {
	SetWorkers(runtime.GOMAXPROCS(0))
}

// SetWorkers sets the process-wide worker budget. n <= 0 resets to
// GOMAXPROCS. Chunks already running keep their tokens from the previous
// budget; new work sees the new budget immediately.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s := &state{workers: n}
	if n > 1 {
		s.tokens = make(chan struct{}, n-1)
		for i := 0; i < n-1; i++ {
			s.tokens <- struct{}{}
		}
	}
	current.Store(s)
}

// Workers returns the current worker budget.
func Workers() int { return current.Load().workers }

// For runs body over the half-open index range [0, n), split into contiguous
// chunks of at least grain indices each, using up to Workers() goroutines
// (including the caller's). body(lo, hi) must handle the sub-range [lo, hi)
// and, for determinism, must only write state that is disjoint across
// indices. For returns once every index has been processed.
func For(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	forCalls.Add(1)
	s := current.Load()
	// Chunk count: enough to use every worker, but no chunk below grain.
	chunks := n / grain
	if chunks > s.workers {
		chunks = s.workers
	}
	if chunks <= 1 {
		chunksInline.Add(1)
		body(0, n)
		return
	}
	// Chunk i is [i·n/chunks, (i+1)·n/chunks): sizes differ by at most one,
	// so each holds at least n/chunks ≥ grain indices.
	var wg sync.WaitGroup
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if hi == n {
			// Always run the final chunk inline: the caller participates, and
			// a fully-contended pool degrades to the plain serial loop.
			chunksInline.Add(1)
			body(lo, hi)
			break
		}
		select {
		case <-s.tokens:
			chunksSpawned.Add(1)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				defer func() { s.tokens <- struct{}{} }()
				body(lo, hi)
			}(lo, hi)
		default:
			chunksInline.Add(1)
			body(lo, hi)
		}
	}
	wg.Wait()
}

// Do runs the given tasks with the same bounded fan-out as For: each task is
// one chunk. It is the experiment plane's primitive for "run these
// independent cells concurrently".
func Do(tasks ...func()) {
	For(len(tasks), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			tasks[i]()
		}
	})
}
