// Package par is the deterministic fan-out primitive shared by the
// fault-injection and benchmark harnesses: a fixed pool of goroutines
// drains an indexed job list through one shared counter that only grows,
// so no goroutine idles while jobs remain and each claims its jobs in
// ascending index order. Every job writes only its own result slot.
// Because job i's inputs are derived from i alone and the caller merges
// slots in index order, the combined result is bit-identical regardless
// of the worker count or the order in which jobs finish.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n <= 0 selects GOMAXPROCS, and the
// pool is never larger than the job count.
func Workers(n, jobs int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > jobs {
		n = jobs
	}
	if n < 1 {
		n = 1
	}
	return n
}

// ForEach runs fn(i) for every i in [0, jobs) on at most workers
// goroutines (resolved through Workers). It returns the error of the
// lowest-indexed failing job, so the reported error does not depend on
// scheduling. With one worker the jobs run inline on the calling
// goroutine in index order.
func ForEach(jobs, workers int, fn func(i int) error) error {
	return ForEachShard(jobs, workers, func(_, i int) error { return fn(i) })
}

// ForEachCtx is ForEach with cancellation: once ctx is done no further
// jobs start, and ctx.Err() is returned (it takes precedence over job
// errors, which a cancellation typically causes downstream).
func ForEachCtx(ctx context.Context, jobs, workers int, fn func(i int) error) error {
	return ForEachShardCtx(ctx, jobs, workers, func(_, i int) error { return fn(i) })
}

// ctxFirst prefers the context's cancellation error over a job error.
func ctxFirst(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// ForEachShard is ForEach with the worker's pool index exposed:
// fn(worker, i) with worker in [0, Workers(workers, jobs)). A worker
// index is owned by exactly one goroutine, so fn may accumulate into
// per-worker shards (e.g. obs.Collector) without synchronization. Which
// jobs land on which shard depends on scheduling; shard contents are
// only deterministic once merged with a commutative fold.
func ForEachShard(jobs, workers int, fn func(worker, i int) error) error {
	return ForEachShardCtx(context.Background(), jobs, workers, fn)
}

// ForEachShardCtx is ForEachShard with cancellation: the pool stops
// claiming jobs once ctx is done (a job already running is not
// preempted), and ctx.Err() is returned in preference to job errors.
func ForEachShardCtx(ctx context.Context, jobs, workers int, fn func(worker, i int) error) error {
	if jobs <= 0 {
		return ctx.Err()
	}
	workers = Workers(workers, jobs)
	if workers == 1 {
		for i := 0; i < jobs; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return ctxFirst(ctx, err)
			}
		}
		return ctx.Err()
	}
	errs := make([]error, jobs)
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= jobs {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return ctxFirst(ctx, err)
		}
	}
	return ctx.Err()
}
