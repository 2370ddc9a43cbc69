package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// Host normalisation.
//
// On a shared virtual machine the host's speed drifts. In runs of the same
// code minutes apart, every path of every workload moved together by up to
// 45%, with next to no CPU time stolen by the hypervisor, and the medians
// of whole runs spread by more than the bounds of the metrics. A fixed
// computation that shares no code with the checker moved with them: in
// runs of engine-chain minutes apart, the one whose reference took 81 ms
// checked 32% more events per second on the sequential path than the one
// whose reference took 108 ms.
//
// So a run times refWork, a fixed sort and map workload that uses only the
// standard library, between the timed rounds, and every timed end-to-end
// metric is reported at the reference speed: a throughput is multiplied,
// and a latency divided, by the reference's time around it over
// refNominal. The sequential path is scaled by the reference on one
// thread; the paths that keep every CPU busy by the reference on every
// CPU at once. A path that takes twice as long on a host where the
// reference also takes twice as long reads the same. A change to the
// checker moves its metric, because the reference runs none of the
// checker's code. Both the reference and the paths are timed net of the
// CPU time the hypervisor stole (clock, below). The raw figures, in wall
// time, and the reference times are printed beside the metrics.

const (
	// refNominal is the reference time the metrics are scaled to, about
	// what refWork takes on a 2-vCPU cloud VM.
	refNominal = 100 * time.Millisecond
	refLen     = 1 << 19 // 4 MiB of uint64 to sort
	refKeys    = 1 << 17 // map updates per run
)

// refWork is the reference computation: copy 512Ki pseudo-random uint64
// into a buffer, sort it, and make 128Ki map updates keyed by the sorted
// values. It touches about 12 MiB per thread, like the checker's clocks
// and batches, and the work allocates nothing after newRefWork (timing it
// reads /proc/stat, and on several threads starts goroutines), so it does
// not move the checker's garbage collection. It can run on one thread or on several at
// once, each on its own copy: a path that keeps both CPUs busy, like
// -pipeline, -par 2 or the service, slows when the host takes either CPU
// away, and a one-thread reference would not see that.
type refWork struct {
	parts []*refPart
}

type refPart struct {
	src, buf []uint64
	m        map[uint64]uint32
	sink     uint64
}

// newRefWork sets up the reference for up to threads threads at once.
func newRefWork(threads int) *refWork {
	r := &refWork{}
	for i := 0; i < threads; i++ {
		p := &refPart{src: make([]uint64, refLen), buf: make([]uint64, refLen), m: make(map[uint64]uint32, refKeys)}
		x := uint64(0x9E3779B97F4A7C15)
		for i := range p.src {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			p.src[i] = x
		}
		r.parts = append(r.parts, p)
	}
	return r
}

func (p *refPart) work() {
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	clear(p.m)
	for i := 0; i < refKeys; i++ {
		p.m[p.buf[(i*7919)%refLen]>>40] += uint32(i)
	}
	p.sink += uint64(len(p.m))
}

// run does the reference work once on each of threads threads and returns
// the time in seconds, net of steal, until the last one is done.
func (r *refWork) run(threads int) float64 {
	ck := startClock()
	if threads == 1 {
		r.parts[0].work()
		return ck.stop().own.Seconds()
	}
	var wg sync.WaitGroup
	for _, p := range r.parts[:threads] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work()
		}()
	}
	wg.Wait()
	return ck.stop().own.Seconds()
}

// refTimes are reference times taken at one point of a run: on one thread
// and on every CPU at once.
type refTimes struct{ one, all float64 }

func (r *refWork) sample() refTimes {
	return refTimes{one: r.run(1), all: r.run(len(r.parts))}
}

// A clock times an interval both ways: its wall time, and the part of it
// the host left to this machine. On a shared host the hypervisor takes
// CPU time from the VM in bursts (up to half of it in some minutes while
// this benchmark was written), and a burst falls on some rounds and turns
// and not on the reference work around them. So every timed interval,
// the reference work's included, is net of the CPU time stolen in it
// (the steal column of /proc/stat, summed over CPUs) spread over the
// CPUs. /proc/stat counts in 10 ms ticks, so an interval's net time is
// that coarse.
type clock struct {
	start time.Time
	steal float64
}

// interval is a timed interval: wall time, and wall time net of steal.
type interval struct{ wall, own time.Duration }

func startClock() clock { return clock{start: time.Now(), steal: hostStealSeconds()} }

func (c clock) stop() interval {
	wall := time.Since(c.start)
	stolen := time.Duration((hostStealSeconds() - c.steal) / float64(runtime.NumCPU()) * float64(time.Second))
	// The tick counting can make the steal read up to a tick more than the
	// interval held; never count less than a quarter of the wall time.
	return interval{wall: wall, own: max(wall-stolen, wall/4)}
}

// hostFactor is how much slower than nominal the host ran the reference.
func hostFactor(refSeconds float64) float64 {
	return refSeconds / refNominal.Seconds()
}
