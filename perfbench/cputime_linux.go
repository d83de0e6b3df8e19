package main

import (
	"syscall"
	"time"
	"unsafe"
)

// Linux CPU-time clocks (clock_gettime(2)). They advance only while a
// thread of this process runs, so time the hypervisor gives to another
// guest (steal) and time spent waiting for a CPU do not count.
const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime: " + errno.Error()) // both clocks exist on every Linux kernel Go supports
	}
	return time.Duration(ts.Nano())
}

// processCPU is the CPU time every thread of the process has used.
func processCPU() time.Duration { return cpuClock(clockProcessCPU) }

// threadCPU is the CPU time the calling OS thread has used; callers lock
// the goroutine to its thread first.
func threadCPU() time.Duration { return cpuClock(clockThreadCPU) }
