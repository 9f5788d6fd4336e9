// Package caller is the caller side of the cross-package fixture.
package caller

import "callee"

// Held takes the lock before the call: no finding.
func Held(k *callee.K) {
	k.Mu.Lock()
	defer k.Mu.Unlock()
	k.MidLocked()
}

// Stray calls the same chain without the lock.
func Stray(k *callee.K) {
	k.MidLocked() // want `call to .*MidLocked requires "Mu" held`
}
