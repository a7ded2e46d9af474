package disk

import (
	"fmt"
	"io"
	"os"
)

// readFile is the heap fallback of a mapping: the whole file read into a
// buffer. A mapping is only ever read, so the buffer is never written back;
// dropping it is its unmapping.
func readFile(f *os.File, size int64) ([]byte, error) {
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, fmt.Errorf("disk: read %s: %w", f.Name(), err)
	}
	return buf, nil
}
