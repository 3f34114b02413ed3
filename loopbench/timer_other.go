//go:build !linux

package main

import "time"

// pacer sleeps until a due time. Off Linux it falls back to time.Sleep,
// which may wake late on an idle process.
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) until(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) Close() error { return nil }

// threadCPU falls back to the process's CPU time off Linux.
func threadCPU() time.Duration { return cpuTime() }
