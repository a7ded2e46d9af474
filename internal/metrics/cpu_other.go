//go:build !unix

package metrics

import "time"

// ProcessCPU reads 0 where getrusage(2) is not available.
func ProcessCPU() time.Duration { return 0 }
