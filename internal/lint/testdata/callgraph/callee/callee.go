// Package callee is the callee side of the cross-package fixture: the
// guarded field lives here behind two *Locked helpers, and the call that
// breaks their caller-holds contract lives in package caller, so the
// requirement must travel two hops and a package boundary to be reported.
package callee

import "sync"

// K holds one mutex-guarded counter.
type K struct {
	Mu sync.Mutex
	n  int // skylint:guardedby Mu
}

// MidLocked requires Mu only through its callee.
func (k *K) MidLocked() { k.leafLocked() }

// leafLocked touches the guarded field.
func (k *K) leafLocked() { k.n++ }
