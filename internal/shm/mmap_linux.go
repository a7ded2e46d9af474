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
	flags := syscall.MAP_SHARED
	if s.ro {
		prot = syscall.PROT_READ
		// Restore-side mappings are read end to end immediately — by the CRC
		// pass of a view verified at open, which on the instant-on path IS
		// the availability gap, or by the drain's copy. Prefault the whole
		// mapping in one kernel sweep instead of eating a minor fault per
		// page mid-read — on tmpfs the pages are already resident, so
		// MAP_POPULATE only builds page tables.
		flags |= syscall.MAP_POPULATE
	}
	data, err := syscall.Mmap(int(s.f.Fd()), 0, int(s.size),
		prot, flags)
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
