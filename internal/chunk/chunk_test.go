package chunk

import "testing"

// TestBufTakeNeverMoves: slices handed out keep their contents while
// later Takes grow the storage, never overlap, and have cap n; Reset
// hands the first chunk out again.
func TestBufTakeNeverMoves(t *testing.T) {
	var b Buf[int]
	var got [][]int
	next := 0
	for _, n := range []int{1, 3, 8, 0, 5, 2000, 7, 1} {
		s := b.Take(n)
		if len(s) != n || cap(s) != n {
			t.Fatalf("Take(%d): len %d cap %d", n, len(s), cap(s))
		}
		for i := range s {
			s[i] = next
			next++
		}
		got = append(got, s)
	}
	want := 0
	for _, s := range got {
		for _, v := range s {
			if v != want {
				t.Fatalf("element %d reads %d: storage moved or overlapped", want, v)
			}
			want++
		}
	}
	first := &got[0][0]
	b.Reset()
	if p := b.New(); p != first {
		t.Errorf("after Reset, New returned %p, want the first element %p", p, first)
	}
}
