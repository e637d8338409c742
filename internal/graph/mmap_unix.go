//go:build unix

package graph

import (
	"os"
	"syscall"
)

// mapFileRO maps size bytes of f read-only and shared. The mapping stays
// valid after f is closed; the caller owns its lifetime.
func mapFileRO(f *os.File, size int) ([]byte, error) {
	if size <= 0 {
		return nil, nil
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}
