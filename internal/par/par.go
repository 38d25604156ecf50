// Package par is the fan-out primitive shared by the fault-injection and
// benchmark harnesses: a fixed pool of goroutines drains an indexed job
// list through one shared counter that only grows, so no goroutine idles
// while jobs remain and each claims its jobs in ascending index order.
// Which worker runs which job depends on scheduling. Callers stay
// deterministic either way: a job writes only its own result slot, or it
// folds into its worker's accumulator (ForEachShardCtx exposes the worker
// index) with operations that commute — sums and maxima — so the combined
// result is bit-identical for every worker count.
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
	return ForEachShardCtx(context.Background(), jobs, workers, func(_, i int) error { return fn(i) })
}

// ctxFirst prefers the context's cancellation error over a job error.
func ctxFirst(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}

// ForEachShardCtx is ForEach with the worker's pool index exposed and
// with cancellation: fn(worker, i) with worker in [0, Workers(workers,
// jobs)). A worker index is owned by exactly one goroutine, so fn may
// accumulate into per-worker state (e.g. an obs.Collector) without
// synchronization. The pool stops claiming jobs once ctx is done (a job
// already running is not preempted), and ctx.Err() is returned in
// preference to job errors.
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
	var (
		next  atomic.Int64
		mu    sync.Mutex
		first = jobs // index of the lowest-indexed failing job so far
		err   error
		wg    sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1))
				if i >= jobs {
					return
				}
				if e := fn(w, i); e != nil {
					mu.Lock()
					if i < first {
						first, err = i, e
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if err != nil {
		return ctxFirst(ctx, err)
	}
	return ctx.Err()
}
