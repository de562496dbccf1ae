package wal

import (
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
func sleepUntil(deadline time.Time) {
	for d := time.Until(deadline); d > 0; d = time.Until(deadline) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: go round again
	}
}
