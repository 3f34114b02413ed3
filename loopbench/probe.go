package main

import (
	"runtime"
	"time"
)

// probe is a fixed piece of CPU and memory work whose duration tracks
// the host's speed: it copies a buffer, hashes part of it and follows a
// chain of dependent loads through a table, the kinds of work a request
// does. A run takes place on a locked OS thread and is timed in that
// thread's CPU time, so neither the Go scheduler, nor the collector's
// workers, nor the hypervisor's steal can lengthen it; only a slower
// CPU can. A run allocates nothing, so it never assists the collector.
type probe struct {
	src, dst []byte
	next     []uint32
	sink     uint64
}

const probeBytes = 4 << 20

// probeRef is the probe's time on the reference host, a 2-vCPU
// Firecracker VM (Linux 6.18, Go 1.24.0) on which the probe took
// 9–12 ms. The end-to-end time metrics are given at this speed.
const probeRef = 10 * time.Millisecond

func newProbe() *probe {
	p := &probe{src: make([]byte, probeBytes), dst: make([]byte, probeBytes), next: make([]uint32, probeBytes/4)}
	// A single random cycle through next, so each load depends on the
	// one before (Sattolo's algorithm over a fixed xorshift stream).
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(p.next) - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	for i := range p.src {
		p.src[i] = byte(i * 31)
	}
	return p
}

// run does the work once and returns the thread CPU time it took.
func (p *probe) run() time.Duration {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := threadCPU()
	copy(p.dst, p.src)
	h := uint64(14695981039346656037)
	for _, b := range p.dst[:probeBytes/4] {
		h = (h ^ uint64(b)) * 1099511628211
	}
	k := uint32(0)
	for range 1 << 16 {
		k = p.next[k]
	}
	p.sink += h + uint64(k)
	return threadCPU() - start
}
