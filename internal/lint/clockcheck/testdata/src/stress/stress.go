// Package stress is the pattern clockcheck exists to catch: a concurrent
// driver timing its wall-clock phase with time.Now/time.Since inside
// otherwise simulated-time code.
package stress

import (
	"sync"
	"time"
)

type result struct {
	Ops  int64
	Wall time.Duration
}

func runStress(workers int) result {
	var wg sync.WaitGroup
	var ops int64
	start := time.Now() // want `time\.Now reads the wall clock`
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var now time.Duration
			now += time.Millisecond
			_ = now
		}()
	}
	wg.Wait()
	return result{
		Ops:  ops,
		Wall: time.Since(start), // want `time\.Since reads the wall clock`
	}
}
