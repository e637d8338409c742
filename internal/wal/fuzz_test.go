package wal

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// segmentSeed is one real segment with the parse it must get back.
type segmentSeed struct {
	data    []byte
	batches int   // committed batches before any tear
	keep    int64 // the committed prefix's length
	torn    bool  // the segment ends in a torn record
}

// fuzzSeeds writes segments with Open and Append: empty (the header a
// roll writes before the first record), one batch, several batches, and
// several batches whose last one is torn by a crash mid-write.
func fuzzSeeds(f *testing.F) []segmentSeed {
	dir := f.TempDir()
	l, _, err := Open(Options{Dir: dir, Policy: SyncNone})
	if err != nil {
		f.Fatal(err)
	}
	read := func() []byte {
		l.mu.Lock()
		defer l.mu.Unlock()
		data, err := os.ReadFile(filepath.Join(dir, l.segs[len(l.segs)-1].name))
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	add := func(seq uint64) {
		ops := [][]byte{[]byte("op-payload"), binary.AppendUvarint(nil, seq*1000)}
		if err := l.Append(seq, seq*10, ops); err != nil {
			f.Fatal(err)
		}
	}
	add(1)
	one := read()
	add(2)
	add(3)
	several := read()
	add(4)
	torn := read()
	torn = torn[:len(torn)-3]
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	return []segmentSeed{
		{data: one[:hdrSize], keep: hdrSize},
		{data: one, batches: 1, keep: int64(len(one))},
		{data: several, batches: 3, keep: int64(len(several))},
		{data: torn, batches: 3, keep: int64(len(several)), torn: true},
	}
}

// FuzzParseSegment feeds arbitrary bytes to the segment reader as a last
// or a sealed segment. It must never panic; an accepted segment keeps a
// prefix between its header and its end, and its batches run on from
// the header's first sequence number. An unmodified seed parses back to
// every batch it was written with.
func FuzzParseSegment(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, s := range seeds {
		f.Add(s.data, true)
		f.Add(s.data, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, last bool) {
		if len(data) < hdrSize {
			return // Open handles a short file before parsing it
		}
		firstSeq := binary.LittleEndian.Uint64(data[8:hdrSize])
		batches, keep, err := parseSegment(data, firstSeq, last, "fuzz")
		if err == nil {
			if keep < hdrSize || keep > int64(len(data)) {
				t.Fatalf("keep %d outside [%d, %d]", keep, hdrSize, len(data))
			}
			for i, b := range batches {
				if b.seq != firstSeq+uint64(i) {
					t.Fatalf("batch %d has seq %d, want %d", i, b.seq, firstSeq+uint64(i))
				}
			}
		}
		for _, s := range seeds {
			if string(s.data) != string(data) {
				continue
			}
			if s.torn && !last {
				if err == nil {
					t.Fatal("a torn record in a sealed segment was accepted")
				}
				return
			}
			if err != nil || len(batches) != s.batches || keep != s.keep {
				t.Fatalf("seed parsed to %d batches, keep %d, err %v; want %d batches, keep %d",
					len(batches), keep, err, s.batches, s.keep)
			}
		}
	})
}
