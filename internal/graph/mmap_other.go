//go:build !unix

package graph

import (
	"errors"
	"os"
)

// mapFileRO is unavailable off unix; checkpoint loading falls back to a
// heap read of the file.
func mapFileRO(f *os.File, size int) ([]byte, error) {
	return nil, errors.New("graph: file mmap unsupported on this platform")
}
