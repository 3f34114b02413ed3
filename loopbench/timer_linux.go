//go:build linux

package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps until a due time with timer precision. A plain
// time.Sleep on an otherwise idle process can wake up to a millisecond
// late, because the runtime's network poller waits in whole
// milliseconds; an open-loop schedule timed from its due times would
// count that lateness as request latency. A non-blocking timerfd read
// through the poller wakes when the kernel timer fires instead.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock, tfdCloexec = 1, syscall.O_NONBLOCK, syscall.O_CLOEXEC
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "pacer")}, nil
}

// until blocks until t; it returns at once when t has passed.
func (p *pacer) until(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := [4]int64{0, 0, int64(d / time.Second), int64(d % time.Second)} // interval, then value
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	if _, err := p.f.Read(p.buf[:]); err != nil {
		return fmt.Errorf("timerfd read: %w", err)
	}
	return nil
}

func (p *pacer) Close() error { return p.f.Close() }

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
