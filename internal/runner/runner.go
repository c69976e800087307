// Package runner schedules independent simulation jobs across a bounded
// worker pool. The paper's evaluation is a grid of independent runs
// (schemes × applications × machine sizes × sparse configurations); the
// pool spreads that grid across goroutines with work stealing, while
// Collect returns results in submission order, so parallel output is
// byte-identical to a serial sweep regardless of completion order.
//
// The scheduler is deliberately simple: each worker owns a contiguous
// range of job indices and pops from its front; a worker whose range
// drains steals the tail half of the richest remaining range. Jobs here
// are whole machine simulations (milliseconds to seconds each), so the
// single mutex guarding the ranges is never contended enough to matter.
package runner

import (
	"context"
	"runtime"
	"sync"
)

// Pool is a bounded worker pool. The zero-size pool (and a nil *Pool)
// degenerate to serial execution in the calling goroutine.
type Pool struct {
	workers int
}

// New returns a pool with the given number of workers; workers <= 0
// selects GOMAXPROCS, the "use the whole host" default.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// span is one worker's half-open range [next, limit) of unclaimed jobs.
type span struct {
	next, limit int
}

// Collect runs job(0) … job(n-1) on the pool and returns their results
// indexed by job number — submission order, never completion order. A
// panic in any job is re-raised in the caller after the remaining
// workers drain.
func Collect[R any](p *Pool, n int, job func(i int) R) []R {
	out, _ := CollectCtx(nil, p, n, job)
	return out
}

// CollectCtx is Collect with cooperative cancellation: once ctx is done,
// workers finish the job they are currently executing but claim no new
// ones — the "finish the in-flight window" discipline graceful drains
// need. It returns the (partial) results plus a mask of which jobs
// actually ran; with a nil or never-cancelled context every job runs and
// the call is exactly Collect.
func CollectCtx[R any](ctx context.Context, p *Pool, n int, job func(i int) R) ([]R, []bool) {
	out := make([]R, n)
	ran := make([]bool, n)
	cancelled := func() bool {
		if ctx == nil {
			return false
		}
		select {
		case <-ctx.Done():
			return true
		default:
			return false
		}
	}
	w := p.Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				break
			}
			out[i] = job(i)
			ran[i] = true
		}
		return out, ran
	}

	spans := make([]span, w)
	for k := range spans {
		spans[k] = span{next: k * n / w, limit: (k + 1) * n / w}
	}
	var mu sync.Mutex
	// take claims the next job for worker k: the front of its own span,
	// or — once that drains — the tail half (at least one job) of the
	// victim span with the most work left.
	take := func(k int) (int, bool) {
		if cancelled() {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		s := &spans[k]
		if s.next >= s.limit {
			victim, best := -1, 0
			for j := range spans {
				if left := spans[j].limit - spans[j].next; left > best {
					victim, best = j, left
				}
			}
			if victim < 0 {
				return 0, false
			}
			v := &spans[victim]
			mid := v.next + (v.limit-v.next)/2
			s.next, s.limit = mid, v.limit
			v.limit = mid
		}
		i := s.next
		s.next++
		return i, true
	}

	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				i, ok := take(k)
				if !ok {
					return
				}
				out[i] = job(i)
				ran[i] = true
			}
		}(k)
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out, ran
}

// Map runs fn over every item concurrently and returns the results in
// item order.
func Map[T, R any](p *Pool, items []T, fn func(T) R) []R {
	return Collect(p, len(items), func(i int) R { return fn(items[i]) })
}
