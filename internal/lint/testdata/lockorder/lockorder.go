// Package lockorder is the fixture for the lockorder analyzer: the
// cross-function lock-acquisition graph must stay acyclic.
package lockorder

import "sync"

var (
	muA sync.Mutex
	muB sync.Mutex
	rw  sync.RWMutex
)

// abOrder acquires muB while holding muA: the A→B edge. The cycle
// diagnostic lands here because this is the lexicographically first edge
// of the A/B cycle closed by baOrder below.
func abOrder() {
	muA.Lock()
	muB.Lock() // want `lock order cycle`
	muB.Unlock()
	muA.Unlock()
}

// baOrder closes the cycle with the opposite order.
func baOrder() {
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

// doubleLock deadlocks against itself immediately.
func doubleLock() {
	muA.Lock()
	muA.Lock() // want `already held`
	muA.Unlock()
	muA.Unlock()
}

// doubleRLockOK: nested read locks do not self-deadlock.
func doubleRLockOK() {
	rw.RLock()
	rw.RLock()
	rw.RUnlock()
	rw.RUnlock()
}

type counter struct {
	mu sync.Mutex
	n  int
}

// bump is the ordinary single-lock pattern: no edges, no findings.
func (c *counter) bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// flushLocked runs with c.mu already held (the Locked suffix is the
// contract), so acquiring muA records the counter.mu→muA edge; the
// cycle diagnostic lands on this edge because counter.mu sorts first.
func (c *counter) flushLocked() {
	muA.Lock() // want `lock order cycle`
	c.n = 0
	muA.Unlock()
}

// lockThenTouch closes the second cycle: muA→counter.mu.
func lockThenTouch(c *counter) {
	muA.Lock()
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	muA.Unlock()
}

// sequentialOK acquires the same mutexes one after the other, never
// nested: no edges at all.
func sequentialOK() {
	muA.Lock()
	muA.Unlock()
	muB.Lock()
	muB.Unlock()
}

// closureOwnUnit: a function literal is its own unit — the lock held
// outside does not leak into the closure's held-set (it runs later).
func closureOwnUnit() func() {
	muB.Lock()
	defer muB.Unlock()
	return func() {
		muB.Lock()
		defer muB.Unlock()
	}
}

var muX, muY, muP, muQ sync.Mutex

// earlyReturnXY releases muX only on the path that returns, so muX is
// still held where muY is acquired: the muX→muY edge closes a cycle with
// yxOrder.
func earlyReturnXY(fail bool) bool {
	muX.Lock()
	if fail {
		muX.Unlock()
		return false
	}
	muY.Lock() // want `lock order cycle`
	muY.Unlock()
	muX.Unlock()
	return true
}

func yxOrder() {
	muY.Lock()
	muX.Lock()
	muX.Unlock()
	muY.Unlock()
}

// branchThenJoin takes muP on one branch only; on that path muP is
// still held after the join, where muQ is acquired, so muP→muQ closes a
// cycle with qpOrder even though muP is not held on every path.
func branchThenJoin(b, fail bool) bool {
	if b {
		muP.Lock()
		if fail {
			muP.Unlock()
			return false
		}
	}
	muQ.Lock() // want `lock order cycle`
	muQ.Unlock()
	if b {
		muP.Unlock()
	}
	return true
}

func qpOrder() {
	muQ.Lock()
	muP.Lock()
	muP.Unlock()
	muQ.Unlock()
}

// relockInLoopLocked runs with c.mu held and re-takes it in a loop: the
// first iteration deadlocks, though the back edge arrives with c.mu
// released, so c.mu is held on some path but not on every path.
func (c *counter) relockInLoopLocked(items []int) {
	for range items {
		c.mu.Lock() // want `already held`
		c.n++
		c.mu.Unlock()
	}
}

var mu1, mu2, mu3, mu4 sync.Mutex

// Outer holds mu1 and calls lock2, which takes mu2: the mu1→mu2 edge is
// recorded at the call, through the callee's acquires summary, and
// closes a cycle with Reverse.
func Outer() {
	mu1.Lock()
	lock2() // want `lock order cycle`
	mu1.Unlock()
}

func lock2() {
	mu2.Lock()
	mu2.Unlock()
}

func Reverse() {
	mu2.Lock()
	mu1.Lock()
	mu1.Unlock()
	mu2.Unlock()
}

// spawnUnderLockOK starts lock4 on a new goroutine while holding mu3:
// the goroutine does not hold mu3, so no mu3→mu4 edge closes a cycle
// with fourThree.
func spawnUnderLockOK() {
	mu3.Lock()
	go lock4()
	mu3.Unlock()
}

func lock4() {
	mu4.Lock()
	mu4.Unlock()
}

func fourThree() {
	mu4.Lock()
	mu3.Lock()
	mu3.Unlock()
	mu4.Unlock()
}
