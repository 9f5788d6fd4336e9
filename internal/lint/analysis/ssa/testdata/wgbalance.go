// Seed input for FuzzSSABuild: sync.WaitGroup Add/Done/Wait across goroutines, loops and early returns.
package wgbalance

import "sync"

func work(int) {}

func helper(*sync.WaitGroup) {}

// fanOutOK is the repo's canonical shape: Add before go, deferred Done.
func fanOutOK(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

// addInsideGoroutine races: Wait can observe a zero counter before the
// goroutine is scheduled and its Add runs.
func addInsideGoroutine(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func() {
			wg.Add(1)
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

// doneSkippedOnPath deadlocks Wait whenever an item takes the early
// return: the plain Done is unreachable on that path.
func doneSkippedOnPath(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			if it < 0 {
				return
			}
			work(it)
			wg.Done()
		}()
	}
	wg.Wait()
}

// plainDoneAllPathsOK needs no defer: every path through the goroutine
// reaches a Done, which the must-analysis proves.
func plainDoneAllPathsOK(items []int) {
	var wg sync.WaitGroup
	for _, it := range items {
		wg.Add(1)
		go func() {
			if it < 0 {
				wg.Done()
				return
			}
			work(it)
			wg.Done()
		}()
	}
	wg.Wait()
}

// noDoneAnywhere can never get back to zero.
func noDoneAnywhere() {
	var wg sync.WaitGroup
	wg.Add(1)
	wg.Wait()
}

// escapesOK hands the WaitGroup to a helper, which owns the Done side;
// local balance is no longer provable and must not be reported.
func escapesOK() {
	var wg sync.WaitGroup
	wg.Add(1)
	go helper(&wg)
	wg.Wait()
}
