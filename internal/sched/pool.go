package sched

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"github.com/mmsim/staggered/internal/profiling"
)

// workerPool is a bounded pool of persistent goroutines for the
// intra-interval parallel phases (shard drains and release sorts).
// The engines call run millions of times per sweep, so the
// pool keeps its goroutines parked on a channel instead of spawning
// per interval, and run hands out work through a shared atomic cursor
// so uneven chunks self-balance.
//
// The pool carries no results: tasks write only shard- or chunk-local
// state, and the caller merges sequentially after run returns.  That
// is the determinism contract of DESIGN.md §11 — parallelism decides
// only *when* shard-local values are computed, never their content or
// merge order.
type workerPool struct {
	tasks chan poolTask
	wg    sync.WaitGroup // goroutine lifetime, for close
	// concurrent records whether the pool's goroutines can actually run
	// simultaneously (GOMAXPROCS > 1 at creation).  Optional phases
	// that only trade sequential work for parallel work consult it: on
	// a single-proc run they cannot pay for themselves and skip — a
	// performance gate only, never a correctness one (results are
	// worker-count independent either way).
	concurrent bool
}

type poolTask struct {
	fn   func(i int)
	next *atomic.Int64
	n    int
	done *sync.WaitGroup
}

// newWorkerPool starts workers persistent goroutines.  workers must be
// at least 1; a 1-worker pool is legal but callers should prefer
// running inline.
func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask), concurrent: runtime.GOMAXPROCS(0) > 1}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer p.wg.Done()
			if profiling.PhaseLabelsEnabled() {
				// Tag the worker so -cpuprofile samples taken inside a
				// parallel phase separate from the interval goroutine's;
				// the phase label itself is inherited per task via the
				// caller's labeled() wrapper when one is active.
				pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
					pprof.Labels("pool", "worker")))
			}
			for t := range p.tasks {
				for {
					i := int(t.next.Add(1)) - 1
					if i >= t.n {
						break
					}
					t.fn(i)
				}
				t.done.Done()
			}
		}()
	}
	return p
}

// run invokes fn(i) for every i in [0, n), distributing indices over
// the pool's workers, and returns when all calls have completed.  The
// calling goroutine also works, so a pool of W workers applies W+1
// goroutines and run never deadlocks on a saturated pool.
func (p *workerPool) run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if n == 1 {
		fn(0)
		return
	}
	var next atomic.Int64
	var done sync.WaitGroup
	t := poolTask{fn: fn, next: &next, n: n, done: &done}
	// Enlist at most n-1 pool workers; the caller claims indices too.
	// The Add must precede the send: a worker may finish and Done
	// before the send statement returns.
	enlisted := 0
	for enlisted < n-1 {
		done.Add(1)
		select {
		case p.tasks <- t:
			enlisted++
			continue
		default:
			done.Done()
		}
		break
	}
	for {
		i := int(next.Add(1)) - 1
		if i >= n {
			break
		}
		fn(i)
	}
	done.Wait()
}

// close retires the pool's goroutines.  run must not be called after
// close.
func (p *workerPool) close() {
	close(p.tasks)
	p.wg.Wait()
}
