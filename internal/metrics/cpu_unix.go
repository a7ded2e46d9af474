//go:build unix

package metrics

import (
	"syscall"
	"time"
)

// ProcessCPU is the whole process's CPU time, user and system: getrusage(2).
func ProcessCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // zero on failure
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
