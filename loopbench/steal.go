package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// stealTime reads the machine's cumulative CPU steal from /proc/stat:
// time this machine was ready to run while the hypervisor ran another
// guest, which the program cannot cause. Zero where it is not known.
func stealTime() time.Duration {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(fields[8], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
}
