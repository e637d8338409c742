package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// openT opens a log in dir, failing the test on error.
func openT(t *testing.T, o Options) (*Log, RecoverInfo) {
	t.Helper()
	l, info, err := Open(o)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, info
}

// appendN appends n one-op batches starting at seq start+1, with op
// payloads that identify their batch.
func appendN(t *testing.T, l *Log, start uint64, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := start + uint64(i) + 1
		op := []byte(fmt.Sprintf("op-%d-payload", seq))
		if err := l.Append(seq, seq*10, [][]byte{op, []byte("second")}); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
}

// collect replays everything after `after` into (seq, epoch, op-count)
// triples.
func collect(t *testing.T, l *Log, after uint64) [][3]uint64 {
	t.Helper()
	var got [][3]uint64
	err := l.Replay(after, func(seq, epoch uint64, ops [][]byte) error {
		want := fmt.Sprintf("op-%d-payload", seq)
		if string(ops[0]) != want {
			t.Fatalf("batch %d first op = %q, want %q", seq, ops[0], want)
		}
		got = append(got, [3]uint64{seq, epoch, uint64(len(ops))})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return got
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	return names
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, info := openT(t, Options{Dir: dir})
	if info.Batches != 0 || info.Segments != 0 {
		t.Fatalf("fresh dir: %+v", info)
	}
	appendN(t, l, 0, 7)
	got := collect(t, l, 0)
	if len(got) != 7 {
		t.Fatalf("replayed %d batches, want 7", len(got))
	}
	for i, g := range got {
		if g[0] != uint64(i+1) || g[1] != g[0]*10 || g[2] != 2 {
			t.Fatalf("batch %d: got %v", i, g)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info := openT(t, Options{Dir: dir})
	defer l2.Close()
	if info.Batches != 7 || info.LastSeq != 7 || info.MaxEpoch != 70 || info.Truncated {
		t.Fatalf("reopen: %+v", info)
	}
	if got := collect(t, l2, 3); len(got) != 4 || got[0][0] != 4 {
		t.Fatalf("Replay(3) = %v", got)
	}
	// And appending continues from where the log left off.
	appendN(t, l2, 7, 1)
	if st := l2.Stats(); st.LastSeq != 8 {
		t.Fatalf("LastSeq after reopen append = %d", st.LastSeq)
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	l, _ := openT(t, Options{Dir: t.TempDir()})
	defer l.Close()
	appendN(t, l, 0, 2)
	if err := l.Append(4, 0, nil); err == nil {
		t.Fatal("gap accepted")
	}
	if err := l.Append(2, 0, nil); err == nil {
		t.Fatal("replayed seq accepted")
	}
}

func TestSegmentRoll(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 256})
	appendN(t, l, 0, 20)
	if n := len(segFiles(t, dir)); n < 2 {
		t.Fatalf("expected multiple segments, got %d", n)
	}
	if got := collect(t, l, 0); len(got) != 20 {
		t.Fatalf("replayed %d, want 20", len(got))
	}
	l.Close()
	l2, info := openT(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	if info.Batches != 20 || info.LastSeq != 20 {
		t.Fatalf("reopen across segments: %+v", info)
	}
}

func TestTruncateBefore(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 256})
	defer l.Close()
	appendN(t, l, 0, 20)
	before := len(segFiles(t, dir))
	if err := l.TruncateBefore(15); err != nil {
		t.Fatal(err)
	}
	after := len(segFiles(t, dir))
	if after >= before {
		t.Fatalf("TruncateBefore removed nothing (%d -> %d segments)", before, after)
	}
	// Batches after the cut all survive.
	got := collect(t, l, 15)
	if len(got) != 5 || got[0][0] != 16 {
		t.Fatalf("post-truncate Replay(15) = %v", got)
	}
	if st := l.Stats(); st.LastSeq != 20 {
		t.Fatalf("LastSeq = %d", st.LastSeq)
	}
}

func TestSetNextSeq(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	defer l.Close()
	if err := l.SetNextSeq(42); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(42, 420, [][]byte{[]byte("op-42-payload")}); err != nil {
		t.Fatalf("Append(42) after SetNextSeq: %v", err)
	}
	// SetNextSeq never rewinds.
	if err := l.SetNextSeq(10); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(43, 430, [][]byte{[]byte("op-43-payload")}); err != nil {
		t.Fatalf("Append(43): %v", err)
	}
}

func TestSetNextSeqResetsStaleSegments(t *testing.T) {
	// The checkpoint-ahead-of-WAL crash: batches 6..8 were made durable by
	// a checkpoint but lost from the WAL (fsync=interval/none), so
	// recovery jumps the sequence past a non-empty log. The stale
	// segments must be reset — appending batch 9 directly after batch 5
	// would write a sequence gap the next Open rejects as corruption.
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 5)
	if err := l.SetNextSeq(9); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 8, 2)
	l.Close()
	l2, info := openT(t, Options{Dir: dir})
	defer l2.Close()
	if info.Batches != 2 || info.LastSeq != 10 {
		t.Fatalf("reopen after sequence jump: %+v", info)
	}
	if got := collect(t, l2, 0); len(got) != 2 || got[0][0] != 9 {
		t.Fatalf("Replay = %v", got)
	}
}

// tailFile returns the newest segment's path and size.
func tailFile(t *testing.T, dir string) (string, int64) {
	t.Helper()
	names := segFiles(t, dir)
	if len(names) == 0 {
		t.Fatal("no segments")
	}
	p := filepath.Join(dir, names[len(names)-1])
	st, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, st.Size()
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int64{1, 3, 7} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, Options{Dir: dir})
			appendN(t, l, 0, 5)
			l.Close()
			p, size := tailFile(t, dir)
			// Cut into the last batch's bytes: a torn tail.
			if err := os.Truncate(p, size-cut); err != nil {
				t.Fatal(err)
			}
			l2, info := openT(t, Options{Dir: dir})
			if !info.Truncated || info.TornBytes == 0 {
				t.Fatalf("no repair reported: %+v", info)
			}
			if info.Batches != 4 || info.LastSeq != 4 {
				t.Fatalf("committed prefix: %+v", info)
			}
			if got := collect(t, l2, 0); len(got) != 4 {
				t.Fatalf("replayed %d, want 4", len(got))
			}
			l2.Close()
			// Double reopen is idempotent: the repair already happened.
			l3, info := openT(t, Options{Dir: dir})
			defer l3.Close()
			if info.Truncated || info.Batches != 4 {
				t.Fatalf("second reopen not clean: %+v", info)
			}
		})
	}
}

func TestTornPayloadEmbeddedFrameIsTornTail(t *testing.T) {
	// A torn record whose partially-written payload happens to contain a
	// well-formed record frame must still classify as a torn tail: the
	// resync scan skips the torn record's declared body and requires
	// candidates to chain to end-of-segment, so caller-encoded bytes
	// can't turn a routine crash into an unrecoverable CorruptionError.
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 1)
	embedded := encRecord(rCommit, []byte("payload-victim"))
	op := append(append([]byte{}, embedded...), bytes.Repeat([]byte{0xFF}, 16)...)
	if err := l.Append(2, 20, [][]byte{op}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	p, size := tailFile(t, dir)
	// Cut 2 bytes into the end of batch 2's OP record body: the record
	// header survives, the declared body runs past EOF, and the embedded
	// frame sits whole inside the surviving bytes.
	commitLen := int64(len(encRecord(rCommit, binary.AppendUvarint(binary.AppendUvarint(nil, 2), 20))))
	if err := os.Truncate(p, size-commitLen-2); err != nil {
		t.Fatal(err)
	}
	l2, info := openT(t, Options{Dir: dir})
	defer l2.Close()
	if !info.Truncated || info.Batches != 1 || info.LastSeq != 1 {
		t.Fatalf("embedded frame misclassified the torn tail: %+v", info)
	}
}

func TestWriteErrorRewind(t *testing.T) {
	// A failed mid-batch write (ENOSPC-style partial write) must not
	// leave garbage that later successful appends bury in the middle of
	// the segment: the writer truncates back to the last good offset and
	// the log keeps accepting batches.
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 3)
	cause := errors.New("disk full")
	l.mu.Lock()
	if _, err := l.f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	err := l.rewindLocked(l.off, l.fsize, cause)
	l.mu.Unlock()
	if !errors.Is(err, cause) {
		t.Fatalf("rewind returned %v, want the write error", err)
	}
	appendN(t, l, 3, 2)
	l.Close()
	l2, info := openT(t, Options{Dir: dir})
	defer l2.Close()
	if info.Batches != 5 || info.LastSeq != 5 || info.Truncated {
		t.Fatalf("reopen after rewound write error: %+v", info)
	}
	if got := collect(t, l2, 0); len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
}

func TestWriteErrorUnrewindableMarksDead(t *testing.T) {
	// When the rewind itself fails the file may hold garbage past the
	// committed prefix, so the log must die rather than accept more
	// appends after it; reopen still serves the committed prefix.
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 2)
	l.mu.Lock()
	good := l.f
	ro, err := os.Open(good.Name())
	if err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	if _, err := ro.Seek(0, io.SeekEnd); err != nil {
		l.mu.Unlock()
		t.Fatal(err)
	}
	l.f = ro // writes (and the rewind's truncate) now fail
	l.mu.Unlock()
	if err := l.Append(3, 30, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("append through an unwritable file succeeded")
	}
	if err := l.Append(3, 30, [][]byte{[]byte("x")}); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("dead log accepted another append: %v", err)
	}
	good.Close()
	l.Close()
	l2, info := openT(t, Options{Dir: dir})
	defer l2.Close()
	if info.Batches != 2 || info.LastSeq != 2 {
		t.Fatalf("reopen after dead log: %+v", info)
	}
}

func TestMidLogCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 5)
	l.Close()
	p, _ := tailFile(t, dir)
	// Flip a bit early in the file (inside the first batch's records);
	// valid records follow, so this must be corruption, not a torn tail.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[hdrSize+recHdrSize+3] ^= 0x10
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want CorruptionError", err)
	}
}

func TestFlippedLengthDoesNotSwallowLog(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 5)
	l.Close()
	p, _ := tailFile(t, dir)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// Blow up the first record's length prefix so it claims to extend
	// past EOF. Later records are intact, so recovery must refuse to
	// treat this as a torn tail.
	binary.LittleEndian.PutUint32(data[hdrSize:], 1<<27)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(Options{Dir: dir})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want CorruptionError", err)
	}
}

// TestResyncScanBudget: a last segment whose every 4-byte word claims a
// body a quarter of the segment long made the resync scan hash that
// quarter at each of its offsets, quadratic in the segment size. The
// scan's budget must refuse it promptly, and Open must leave the file as
// it was rather than truncate it.
func TestResyncScanBudget(t *testing.T) {
	const size = 2 << 20
	data := make([]byte, size)
	copy(data, magic)
	binary.LittleEndian.PutUint64(data[8:], 1)
	for off := hdrSize; off+4 <= size; off += 4 {
		binary.LittleEndian.PutUint32(data[off:], size/4|1)
	}
	start := time.Now()
	_, _, err := parseSegment(data, 1, true, "crafted")
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "resync scan") {
		t.Fatalf("parseSegment = %v, want a CorruptionError naming the resync budget", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("refusing the crafted segment took %v", d)
	}

	dir := t.TempDir()
	p := filepath.Join(dir, fmt.Sprintf("wal-%016x.seg", 1))
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); !errors.As(err, &ce) {
		t.Fatalf("Open = %v, want CorruptionError", err)
	}
	if st, err := os.Stat(p); err != nil || st.Size() != size {
		t.Fatalf("Open changed the refused segment: %v, %v", st, err)
	}
}

func TestHeaderOnlyAndShortSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 3)
	l.Close()

	// A header-only next segment (crash right after a roll).
	var hdr [hdrSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], 4)
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000004.seg"), hdr[:], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, info := openT(t, Options{Dir: dir})
	if info.Batches != 3 {
		t.Fatalf("header-only segment: %+v", info)
	}
	appendN(t, l2, 3, 1)
	l2.Close()

	// A sub-header tail segment (crash mid-creation) is deleted.
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000ff.seg"), []byte("GPML"), 0o644); err != nil {
		t.Fatal(err)
	}
	l3, info := openT(t, Options{Dir: dir})
	defer l3.Close()
	if !info.Truncated || info.Batches != 4 {
		t.Fatalf("short segment: %+v", info)
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-00000000000000ff.seg")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("short segment not removed")
	}
}

func TestUncommittedBatchDropped(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 3)
	// Kill exactly at a record boundary inside batch 4: BEGIN and the op
	// are fully written, the COMMIT never is.
	st := l.Stats()
	op := []byte("op-4-payload")
	beginLen := int64(recHdrSize + 1 + len(binary.AppendUvarint(binary.AppendUvarint(nil, 4), 1)))
	opLen := int64(recHdrSize + 1 + len(op))
	l.Arm(Failpoint{Kind: FaultKill, Offset: st.Bytes + beginLen + opLen})
	if err := l.Append(4, 40, [][]byte{op}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append under kill = %v", err)
	}
	if err := l.Append(5, 50, nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("dead log accepted append: %v", err)
	}
	l.Close()
	l2, info := openT(t, Options{Dir: dir})
	defer l2.Close()
	if info.Batches != 3 || !info.Truncated {
		t.Fatalf("uncommitted batch surfaced: %+v", info)
	}
	if got := collect(t, l2, 0); len(got) != 3 {
		t.Fatalf("replayed %d, want 3", len(got))
	}
}

func TestFaultTruncateRewindsStream(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 256})
	appendN(t, l, 0, 3)
	cut := l.Stats().Bytes // rewind to the end of batch 3
	appendN(t, l, 3, 4)
	l.Arm(Failpoint{Kind: FaultTruncate, Offset: cut, After: l.Stats().Bytes + 1})
	if err := l.Append(8, 80, [][]byte{[]byte("op-8-payload")}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Append under truncate fault = %v", err)
	}
	l.Close()
	l2, info := openT(t, Options{Dir: dir, SegmentBytes: 256})
	defer l2.Close()
	if info.Batches != 3 || info.LastSeq != 3 {
		t.Fatalf("after injected tail loss: %+v", info)
	}
}

func TestFaultFlipDetectedOnReopen(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir})
	appendN(t, l, 0, 2)
	flipAt := l.Stats().Bytes + 12 // somewhere inside batch 3's records
	l.Arm(Failpoint{Kind: FaultFlip, Offset: flipAt})
	// The flip is silent: the writer stays alive and keeps acking.
	appendN(t, l, 2, 3)
	l.Close()
	_, _, err := Open(Options{Dir: dir})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open after bit flip = %v, want CorruptionError", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			l, _ := openT(t, Options{Dir: t.TempDir(), Policy: pol, SyncEvery: time.Millisecond})
			appendN(t, l, 0, 5)
			if pol == SyncInterval {
				time.Sleep(20 * time.Millisecond)
			}
			st := l.Stats()
			if pol == SyncAlways && st.Syncs < 5 {
				t.Fatalf("SyncAlways synced %d times", st.Syncs)
			}
			if pol == SyncInterval && st.Syncs == 0 {
				t.Fatal("SyncInterval never synced")
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Sync after Close = %v", err)
			}
		})
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "Interval": SyncInterval, " none ": SyncNone} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestSegmentSeqGapDetected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, Options{Dir: dir, SegmentBytes: 256})
	appendN(t, l, 0, 20)
	l.Close()
	names := segFiles(t, dir)
	if len(names) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(names))
	}
	// Deleting a middle segment leaves a sequence gap recovery must see.
	if err := os.Remove(filepath.Join(dir, names[1])); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("Open with missing segment = %v, want CorruptionError", err)
	}
}
