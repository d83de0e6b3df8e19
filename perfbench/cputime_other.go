//go:build !linux

package main

import "time"

// Without Linux's CPU-time clocks both fall back to the monotonic wall
// clock, which counts time the process was not running.
var clockBase = time.Now()

func processCPU() time.Duration { return time.Since(clockBase) }

func threadCPU() time.Duration { return time.Since(clockBase) }
