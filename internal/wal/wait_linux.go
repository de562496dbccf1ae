package wal

import (
	"runtime"
	"syscall"
	"time"
)

// sleepUntil blocks until deadline. The runtime's timers ride on epoll's
// millisecond timeouts — on Linux time.Sleep(2.5ms) returns after about
// 3.2 ms and time.Sleep(200µs) after about 1.1 ms — so the simulated
// sync waits in nanosleep(2) instead, which is late by the kernel's
// timer slack (some 50–100 µs). The thread sleeps in the kernel; nothing
// spins. A signal (the runtime's preemption tick) interrupts the sleep
// early, hence the loop on the absolute deadline.
//
// The thread goes to sleep with its processor attached, and the runtime
// takes a processor back from a system call only at its monitor's next
// tick, which on a quiet process is up to 10 ms away. A goroutine queued
// on this processor — when a committer leads the flush from a connection
// handler, the other client's handler — would sit out the sync and miss
// the window it was held for, so whatever is runnable here runs first.
func sleepUntil(deadline time.Time) {
	runtime.Gosched()
	for d := time.Until(deadline); d > 0; d = time.Until(deadline) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: go round again
	}
}
