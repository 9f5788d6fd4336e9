// Seed input for FuzzSSABuild: calls to I/O, locks and logging from nested helpers.
package purity

import (
	"fmt"
	"os"
	"sync"
)

var mu sync.Mutex

// Kernel is a compute root; the impure calls are two and three hops
// down, where the summaries find them.
//
//skylint:hotpath
func Kernel(xs []int) int {
	return step(xs)
}

func step(xs []int) int {
	debug(len(xs))
	return locked(xs)
}

func debug(n int) {
	fmt.Println("n =", n)
}

func locked(xs []int) int {
	mu.Lock()
	defer mu.Unlock()
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}

// pure is reachable but effect-free: its zero summary skips it.
//
//skylint:hotpath
func pure(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x * x
	}
	return s
}

// Handler is serve-scope: locking and I/O are its job, only the
// allocation disciplines apply.
//
//skylint:hotpath serve
func Handler() error {
	mu.Lock()
	defer mu.Unlock()
	f, err := os.CreateTemp("", "x")
	if err != nil {
		return err
	}
	return f.Close()
}
