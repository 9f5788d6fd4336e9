// Fixture for the lockset analyzer: accesses to annotated fields must
// happen with the named mutex in the must-hold lockset (held on every
// path), and the *Locked caller-holds contract is verified at call
// sites through the call graph.
package lockset

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // skylint:guardedby mu
}

func (c *counter) inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

func (c *counter) bad() int {
	return c.n // want `n is guarded by "mu"`
}

func (c *counter) badWrite() {
	c.n = 0 // want `n is guarded by "mu"`
}

func (c *counter) resetLocked() {
	c.n = 0
}

func (c *counter) suppressed() int {
	// skylint:ignore lockset single-goroutine test helper
	return c.n
}

// Flow sensitivity: the lexical predecessor Lock no longer counts once
// the mutex has been released.
func (c *counter) unlockThenAccess() int {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	return c.n // want `n is guarded by "mu"`
}

// A lock taken on only one branch is not held at the join.
func (c *counter) branchLock(b bool) int {
	if b {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.n // want `n is guarded by "mu"`
}

// Both branches locking is fine: the must-set intersection keeps mu.
func (c *counter) bothBranchesLock(b bool) int {
	if b {
		c.mu.Lock()
	} else {
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	return c.n
}

// Deferred unlock releases at exit, not at registration.
func (c *counter) deferThenAccess() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// An access inside a deferred closure is checked against the lockset at
// the point the defer is registered.
func (c *counter) deferredBodyBad() {
	defer func() {
		c.n = 0 // want `n is guarded by "mu"`
	}()
}

func (c *counter) deferredBodyGood() {
	c.mu.Lock()
	defer func() {
		c.n = 0
		c.mu.Unlock()
	}()
}

// Interprocedural discharge: calling a *Locked helper demands its mutex
// at the call site, transitively through other *Locked helpers.
func (c *counter) viaHelperGood() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.resetLocked()
}

func (c *counter) viaHelperBad() {
	c.resetLocked() // want `call to .*resetLocked requires "mu" held`
}

func (c *counter) drainLocked() {
	c.resetLocked() // a *Locked helper passes the obligation upward
}

func (c *counter) viaTransitiveBad() {
	c.drainLocked() // want `call to .*drainLocked requires "mu" held`
}

type rw struct {
	mu sync.RWMutex
	m  map[string]int // skylint:guardedby mu
}

func (r *rw) get(k string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.m[k]
}

type wrong struct {
	n int // skylint:guardedby lock // want `no such field`
}

func use(w *wrong) int { return w.n }

// Mutex identity is the struct that declares the mutex, not its name:
// holding another type's mu does not guard counter.n.
type other struct {
	mu sync.Mutex
}

func (o *other) wrongMutex(c *counter) {
	o.mu.Lock()
	defer o.mu.Unlock()
	c.n++ // want `n is guarded by "mu"`
}
