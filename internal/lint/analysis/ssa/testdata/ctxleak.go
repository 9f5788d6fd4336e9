// Seed input for FuzzSSABuild: context cancel functions called, deferred or leaked on branching paths.
package ctxleak

import (
	"context"
	"time"
)

func use(context.Context) {}

func stash(context.CancelFunc) {}

func work() error { return nil }

// deferCancelOK is the canonical good shape: defer covers every exit.
func deferCancelOK(parent context.Context) {
	ctx, cancel := context.WithCancel(parent)
	defer cancel()
	use(ctx)
}

// allBranchesOK calls cancel on both the early-return path and the fall
// through, so the must-analysis proves coverage without a defer.
func allBranchesOK(parent context.Context, fast bool) {
	ctx, cancel := context.WithTimeout(parent, time.Second)
	if fast {
		cancel()
		return
	}
	use(ctx)
	cancel()
}

// missedBranch leaks: the early return skips cancel.
func missedBranch(parent context.Context, fast bool) {
	ctx, cancel := context.WithCancel(parent)
	if fast {
		return
	}
	use(ctx)
	cancel()
}

// discarded can never be cancelled at all.
func discarded(parent context.Context) {
	ctx, _ := context.WithCancel(parent)
	use(ctx)
}

// handsOff passes the cancel function on: the obligation moves with it.
func handsOff(parent context.Context) {
	ctx, cancel := context.WithDeadline(parent, time.Now().Add(time.Second))
	use(ctx)
	stash(cancel)
}

// panicPath is clean: a panicking path is not a leaking path.
func panicPath(parent context.Context, bad bool) {
	ctx, cancel := context.WithCancel(parent)
	if bad {
		panic("bad input")
	}
	use(ctx)
	cancel()
}

// closureCapture is clean: the closure captures cancel (an escape from
// the defining unit's view) and calls it on its own every path.
func closureCapture(parent context.Context) func() {
	ctx, cancel := context.WithCancel(parent)
	use(ctx)
	return func() {
		cancel()
	}
}
