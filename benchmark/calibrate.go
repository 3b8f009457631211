package main

import (
	"sync"
	"time"
)

// Wall-clock time on a shared host drifts with the neighbours' load: on
// the 2-core VM this was written on, the median job time of identical runs
// moved 15-30% between sets taken minutes apart, more than any bound worth
// setting. A fixed reference kernel run beside the jobs drifts the same way,
// so the end-to-end times are reported in calibrated seconds: a duration is
// multiplied by calNominal over the kernel's duration measured next to it.
// A calibrated second is a second on a host on which the kernel takes
// exactly calNominal. The kernel is independent of the code under test, so
// a speed-up of the system shows in full.
const calNominal = 20 * time.Millisecond

// Each goroutine's buffer is 2 MiB, past L2, so memory contention shows;
// three accesses in four stay in its first 64 KiB, as an interpreter's do
// in its frames.
const (
	calWords = 1 << 18
	calHot   = 1 << 13
)

var (
	calBuf  [numPEs][]uint64
	calSink [numPEs]float64
)

// calibrate runs the reference kernel once on numPEs goroutines (the load
// shape of the jobs) and returns how long the slower one took. Each
// goroutine makes pseudo-random read-modify-writes over its buffer with a
// data-dependent branch and a float accumulation: memory, branch and ALU in
// roughly an interpreter's mix. The smoke test runs a token kernel: its
// times are not read.
func (o options) calibrate() time.Duration {
	iters := 2_000_000
	if o.tiny {
		iters = 10_000
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range calBuf {
		if calBuf[k] == nil {
			calBuf[k] = make([]uint64, calWords)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := calBuf[k]
			x := uint64(88172645463325252 + k)
			acc := 0.0
			for i := 0; i < iters; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				j := x >> (64 - 18)
				if i&3 != 0 {
					j &= calHot - 1
				}
				buf[j] += x
				if buf[j]&8 == 0 {
					acc += float64(buf[j]>>40) * 0.5
				} else {
					acc -= float64(j)
				}
			}
			calSink[k] = acc
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// hostSpeed converts a duration measured between two calibrations into
// calibrated time: multiply by the returned factor.
func hostSpeed(before, after time.Duration) float64 {
	return float64(2*calNominal) / float64(before+after)
}
