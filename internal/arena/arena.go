// Package arena holds the small scaffolding helpers shared by the reusable
// run-session layers: bounded worker pools with the deterministic-merge
// discipline, and slice sizing that recovers shrunken capacity. It sits
// below every driver package so the session types cannot drift apart on
// these semantics.
package arena

import "sync"

// RunPool runs fn(worker, item) for every item in [0, items): inline (as
// worker 0) when workers <= 1, else on a bounded pool of min(workers, items)
// goroutines. fn must only write state owned by its item or its worker
// index; callers get determinism by folding per-item results in item order
// afterwards.
//
// A panic in fn reaches the caller in both modes. On the pool, the worker
// that panicked drains the remaining items without running them, so the
// feeder never blocks, and once every worker has exited the first panic
// value is re-raised on the calling goroutine.
func RunPool(workers, items int, fn func(worker, item int)) {
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			fn(0, i)
		}
		return
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked bool
		value    any
	)
	// run reports whether fn returned normally; a panic is recorded (the
	// first one wins) instead of unwinding the worker goroutine.
	run := func(w, i int) (ok bool) {
		defer func() {
			if !ok {
				r := recover()
				mu.Lock()
				if !panicked {
					panicked, value = true, r
				}
				mu.Unlock()
			}
		}()
		fn(w, i)
		return true
	}
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range work {
				if !run(w, i) {
					for range work {
					}
					return
				}
			}
		}(w)
	}
	for i := 0; i < items; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	if panicked {
		panic(value)
	}
}

// Resize returns s with length n, recovering shrunken capacity (and the
// pointer values it holds) before allocating, so session program slices keep
// their reusable elements across runs of varying size.
func Resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	next := make([]T, n)
	copy(next, s[:cap(s)])
	return next
}
