package arena

import (
	"runtime"
	"testing"
	"time"
)

// TestRunPoolPanicReachesCaller pins the pool's failure contract: a panic on
// a pool goroutine is re-raised on the caller (where net/http or a test can
// recover it) instead of killing the process, and no pool goroutine outlives
// the call.
func TestRunPoolPanicReachesCaller(t *testing.T) {
	type boom struct{ item int }
	before := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		RunPool(4, 16, func(_, item int) {
			if item == 5 {
				panic(boom{item})
			}
		})
		return nil
	}()
	if got != (boom{5}) {
		t.Fatalf("caller recovered %v, want the worker's panic value %v", got, boom{5})
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the call, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}
