package shm

import (
	"fmt"
	"io"
)

// loadFallback reads the whole backing file into a heap buffer. Used when
// mmap is disabled; cross-process semantics still hold because storeFallback
// writes the buffer back to the shared file.
func (s *Segment) loadFallback() error {
	buf := make([]byte, s.size)
	if _, err := s.f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return fmt.Errorf("shm: read segment %s: %w", s.name, err)
	}
	s.data = buf
	return nil
}

// storeFallback writes the heap buffer back to the file, on Close.
func (s *Segment) storeFallback() error {
	if s.data == nil {
		return nil
	}
	if s.ro {
		// Read-only views never dirty the buffer; skip the write-back (the
		// fd was opened O_RDONLY and would reject it anyway).
		s.data = nil
		return nil
	}
	_, err := s.f.WriteAt(s.data[:min(int64(len(s.data)), s.size)], 0)
	s.data = nil
	if err != nil {
		return fmt.Errorf("shm: write segment %s: %w", s.name, err)
	}
	return nil
}
