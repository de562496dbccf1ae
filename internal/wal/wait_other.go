//go:build !linux

package wal

import "time"

// sleepUntil blocks until deadline, as precisely as the runtime's
// timers allow on this platform.
func sleepUntil(deadline time.Time) { time.Sleep(time.Until(deadline)) }
