//go:build linux

package shm

import (
	"fmt"
	"syscall"
)

// mapIn maps the segment: real mmap when enabled, heap fallback otherwise.
func (s *Segment) mapIn() error {
	if !s.useMmap {
		return s.loadFallback()
	}
	prot := syscall.PROT_READ | syscall.PROT_WRITE
	if s.ro {
		// No MAP_POPULATE: a view's open reads only the segment's metadata,
		// and an instant-on start goes ALIVE on that (DESIGN.md §14).
		prot = syscall.PROT_READ
	}
	data, err := syscall.Mmap(int(s.f.Fd()), 0, int(s.size), prot, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("shm: mmap %s (%d bytes): %w", s.name, s.size, err)
	}
	s.data = data
	return nil
}

// mapOut unmaps the segment. MAP_SHARED writes are visible to the file
// without an explicit flush.
func (s *Segment) mapOut() error {
	if !s.useMmap {
		return s.storeFallback()
	}
	if s.data == nil {
		return nil
	}
	err := syscall.Munmap(s.data)
	s.data = nil
	if err != nil {
		return fmt.Errorf("shm: munmap %s: %w", s.name, err)
	}
	return nil
}
