package profile

import (
	"runtime"
	"time"
)

// Contention sampling rates behind -profile-contention. Mutex events are
// sampled 1-in-5; block events below ~10µs are dropped by the runtime's
// rate-based sampling. Both are cheap enough to leave on for a debugging
// session but are off by default — the flag exists so /debug/pprof/mutex
// and /debug/pprof/block return real data instead of empty profiles.
const (
	mutexProfileFraction = 5
	blockProfileRateNs   = int(10 * time.Microsecond / time.Nanosecond)
)

// EnableContention turns on mutex and block profiling for the process.
func EnableContention() {
	runtime.SetMutexProfileFraction(mutexProfileFraction)
	runtime.SetBlockProfileRate(blockProfileRateNs)
}
