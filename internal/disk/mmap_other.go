//go:build !linux

package disk

import "os"

// Non-Linux builds always take the heap fallback.

func mmap(f *os.File, size int64) ([]byte, error) { return readFile(f, size) }

func munmap([]byte) error { return nil }
