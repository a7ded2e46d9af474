//go:build !linux

package shm

// Non-Linux builds always use the heap-backed fallback; the shared file
// still carries the data across processes.

func (s *Segment) mapIn() error { return s.loadFallback() }

func (s *Segment) mapOut() error { return s.storeFallback() }
