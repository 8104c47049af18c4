package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// canaryBuf is the memory-stream canary's working set: 32 MiB, larger than
// any last-level cache, allocated once.
var canaryBuf = make([]uint64, 4<<20)

// hostRef is the machine canary: a fixed integer loop and a fixed
// memory-stream loop that call nothing in the repository, timed in ms. Its
// drift between runs is drift of the machine, not of the code under test.
// It reports the faster of three rounds.
func hostRef() float64 {
	best := math.Inf(1)
	for round := 0; round < 3; round++ {
		t0 := time.Now()
		x := uint64(0x9e3779b97f4a7c15)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		var sum uint64
		for pass := 0; pass < 4; pass++ {
			for i := range canaryBuf {
				canaryBuf[i] += uint64(i) ^ x
				sum += canaryBuf[i]
			}
		}
		canarySink = sum
		if ms := float64(time.Since(t0).Nanoseconds()) / 1e6; ms < best {
			best = ms
		}
	}
	return best
}

// canarySink keeps the canary loops from being optimized away.
var canarySink uint64

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the q-quantile of xs by linear interpolation between the
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
