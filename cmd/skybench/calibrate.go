package main

import (
	"math/rand"
	"sort"
	"time"
)

// calibration is a fixed piece of work that shares no code with
// CrowdSky: sorting a copy of a fixed slice, then a pseudo-random walk
// over a table well beyond the per-core caches. A timed run measures it
// next to every session. On a shared host the whole machine speeds up and
// slows down by 10-20% from one second to the next (and by much more
// between quiet and busy periods), which swamps any change in the code;
// a session's time divided by the calibration measured beside it moves
// only when the code does. The *_cal metrics are such ratios, in units
// of one calibration pass ("ref").
type calibration struct {
	keys, buf []int
	table     []uint64
	sink      uint64
}

func newCalibration() *calibration {
	rng := rand.New(rand.NewSource(1))
	c := &calibration{keys: make([]int, 1<<15), buf: make([]int, 1<<15), table: make([]uint64, 1<<20)}
	for i := range c.keys {
		c.keys[i] = rng.Int()
	}
	return c
}

// measure returns the seconds one pass of the calibration takes.
func (c *calibration) measure() float64 {
	start := time.Now()
	copy(c.buf, c.keys)
	sort.Ints(c.buf)
	mask := uint64(len(c.table) - 1)
	x, sum := uint64(88172645463325252), uint64(0)
	for i := 0; i < 1<<18; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		sum += c.table[x&mask]
		c.table[(x>>20)&mask] = sum
	}
	c.sink += sum
	return time.Since(start).Seconds()
}
