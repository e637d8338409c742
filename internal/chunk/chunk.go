// Package chunk hands out slices of one element type from a list of
// fixed chunks. A slice once handed out never moves: a full chunk is left
// as it is and the next one is started, so growing storage copies
// nothing. Chunks start at about minBytes and double up to about
// maxBytes, so a few-row answer pays for a few small chunks and a large
// one for about one allocation per maxBytes. Reset hands the same chunks
// out again from the start, which lets an owner reuse its storage from
// one batch to the next.
package chunk

import "unsafe"

const (
	minBytes = 512
	maxBytes = 64 << 10
)

// Buf is chunked storage for T. The zero value is ready to use, and a Buf
// must not be copied after its first Take.
type Buf[T any] struct {
	chunks [][]T // every chunk allocated so far, each len == cap
	cur    int   // index of the chunk being filled
	off    int   // its used prefix
	// inl backs chunks while there are few, so a small answer's storage
	// costs its chunks and nothing for the list of them.
	inl [4][]T
}

// Take returns n elements of storage, nil for n == 0. The slice's cap is
// n, so an append to it never writes into storage handed out later. After
// a Reset the elements hold whatever was stored in them before: callers
// overwrite every element they take.
func (b *Buf[T]) Take(n int) []T {
	if n == 0 {
		return nil
	}
	for ; b.cur < len(b.chunks); b.cur, b.off = b.cur+1, 0 {
		if c := b.chunks[b.cur]; b.off+n <= len(c) {
			b.off += n
			return c[b.off-n : b.off : b.off]
		}
	}
	var zero T
	elem := max(int(unsafe.Sizeof(zero)), 1)
	size := max(minBytes/elem, 1)
	if k := len(b.chunks); k > 0 {
		size = max(min(2*len(b.chunks[k-1]), maxBytes/elem), 1)
	}
	c := make([]T, max(size, n))
	if b.chunks == nil {
		b.chunks = b.inl[:0]
	}
	b.chunks = append(b.chunks, c)
	b.cur, b.off = len(b.chunks)-1, n
	return c[:n:n]
}

// New returns storage for one T.
func (b *Buf[T]) New() *T { return &b.Take(1)[0] }

// Reset makes every chunk available again, from the first. Storage taken
// before it is handed out again, so the caller must no longer use it.
func (b *Buf[T]) Reset() { b.cur, b.off = 0, 0 }
