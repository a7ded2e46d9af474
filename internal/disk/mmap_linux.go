//go:build linux

package disk

import (
	"os"
	"syscall"
)

// mmap maps size bytes of f read-only and shared. No MAP_POPULATE: a shm
// view's open reads only the segment's metadata, and an instant-on start
// goes ALIVE on that (DESIGN.md §14); a store image's decode touches each
// page once, as it checks the columns.
func mmap(f *os.File, size int64) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

func munmap(data []byte) error { return syscall.Munmap(data) }
