package main

import (
	"math/rand/v2"
	"slices"
	"time"
)

// The end-to-end timings are reported in host-normalized seconds: seconds on
// a host on which the reference kernel below takes refNominal. On the 2-core
// shared host this benchmark was defined on, the speed of the same code
// drifted by up to 2× over ten minutes, so raw wall times of one ten-seed
// series spread by 22–35%, wider than any usable bound. Dividing by the
// kernel's median time in the same process follows that drift; in quiet
// periods it adds about 1% of spread. The raw values are printed on the "#"
// lines.
const refNominal = 0.007

// refInterval is how much measured engine time passes between two samples
// of the reference kernel; at about 7 ms per sample the kernel costs about
// 3% of the measuring time.
const refInterval = 250 * time.Millisecond

// hostClock samples the reference kernel while a workload is measured.
type hostClock struct {
	samples []float64
	since   time.Duration
}

// tick accounts elapsed engine time and samples the kernel once per
// refInterval of it (at least once overall).
func (h *hostClock) tick(elapsed time.Duration) {
	h.since += elapsed
	for len(h.samples) == 0 || h.since >= refInterval {
		h.samples = append(h.samples, referenceKernel().Seconds())
		h.since = max(0, h.since-refInterval)
	}
}

// scale converts measured seconds into host-normalized seconds.
func (h *hostClock) scale() float64 {
	return refNominal / median(h.samples)
}

// referenceKernel times a fixed workload that shares no code with the
// engine: sorting and counting pseudo-random integers on one goroutine. A
// version on every core tracked the host worse, because the Go runtime's
// GC workers took turns with one of its goroutines.
func referenceKernel() time.Duration {
	start := time.Now()
	rng := rand.New(rand.NewPCG(1, 0x7e7))
	xs := make([]uint32, 1<<16)
	for i := range xs {
		xs[i] = rng.Uint32()
	}
	slices.Sort(xs)
	counts := make(map[uint32]int, 1<<10)
	for _, x := range xs {
		counts[x>>22]++
	}
	return time.Since(start)
}
