// Package wal implements the write-ahead log under the durable overlay
// store: a segmented append-only log of mutation batches, each framed by
// BEGIN/COMMIT records so that a crash mid-batch never surfaces a partial
// batch on replay.
//
// On-disk layout: a directory of segment files named wal-%016x.seg, the
// hex being the sequence number of the first batch the segment holds.
// Every segment starts with a 16-byte header (magic "GPMLWAL1" plus that
// first sequence number); after it come length-prefixed records:
//
//	u32 LE body length | u32 LE CRC32C(body) | body
//
// where body is one type byte (BEGIN, OP, COMMIT) followed by the record
// payload. A batch is BEGIN(seq, nops), nops OP records carrying opaque
// payloads the caller encodes, then COMMIT(seq, epoch); batches never span
// segments (the writer rolls to a new segment before BEGIN when the
// current one is full).
//
// Recovery classifies damage by position. Any invalid record in a sealed
// (non-last) segment is corruption and Open fails — data known committed
// is missing, and serving a silent prefix would be a lie. In the last
// segment an invalid record is a torn tail only if no valid record exists
// after it (a forward resync scan that skips the damaged record's own
// declared body and requires candidates to chain to end-of-segment, so
// payload bytes cannot impersonate records); the tail — and any
// batch left without its COMMIT — is then physically truncated away, so
// the log is always an exact committed prefix after Open. If valid
// records do follow the damage, the middle of the log is corrupt (e.g. a
// latent media bit-flip) and Open fails loudly rather than dropping
// committed batches. The scan's hashing is capped at a constant times the
// segment's size; a segment that exhausts the cap is refused, never
// truncated.
//
// Durability is configurable: SyncAlways fsyncs at every COMMIT,
// SyncInterval fsyncs on a timer (bounded loss window), SyncNone leaves
// flushing to the OS. The writer carries a seeded failpoint hook (Arm)
// that the crash-fault-injection harness uses to kill, truncate, or
// bit-flip the stream at arbitrary byte offsets.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	magic      = "GPMLWAL1"
	hdrSize    = 16
	recHdrSize = 8
	// maxRecord bounds a single record body; larger length prefixes are
	// treated as damage, not allocations.
	maxRecord = 1 << 28

	rBegin  byte = 1
	rOp     byte = 2
	rCommit byte = 3
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrInjected is returned by Append when an armed failpoint fires; the
// log is dead afterwards, exactly as if the process had crashed at that
// byte offset.
var ErrInjected = errors.New("wal: injected fault")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// CorruptionError reports damage recovery cannot repair: an invalid
// record that is provably not a torn tail. The log must not be served.
type CorruptionError struct {
	Segment string
	Offset  int64
	Reason  string
}

func (e *CorruptionError) Error() string {
	return fmt.Sprintf("wal: corrupt segment %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// SyncPolicy selects when the writer fsyncs.
type SyncPolicy int

// The fsync policies.
const (
	// SyncAlways fsyncs at every commit: no acknowledged batch is ever
	// lost to a crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer: a crash loses at most the batches
	// acknowledged since the last tick.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes at leisure.
	SyncNone
)

// String renders the policy as its flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseSyncPolicy parses the -fsync flag spelling.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or none)", s)
	}
}

// Options configures Open.
type Options struct {
	// Dir is the directory holding the segment files. Required; created
	// by the caller.
	Dir string
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// SyncEvery is the SyncInterval period (default 50ms).
	SyncEvery time.Duration
	// SegmentBytes is the roll threshold (default 64 MiB).
	SegmentBytes int64
}

// RecoverInfo summarizes what Open found and repaired.
type RecoverInfo struct {
	Segments  int    // live segment files after the scan
	Batches   uint64 // committed batches present
	LastSeq   uint64 // sequence of the newest committed batch (0 if none)
	MaxEpoch  uint64 // highest epoch on any commit record
	TornBytes int64  // bytes truncated from the tail (torn records + uncommitted batch)
	Truncated bool   // whether any tail repair happened
}

// Stats is a point-in-time snapshot of the writer counters.
type Stats struct {
	Segments int    `json:"segments"`
	Bytes    int64  `json:"bytes"` // cumulative record bytes appended (the stream offset)
	Appends  uint64 `json:"appends"`
	Syncs    uint64 `json:"syncs"`
	LastSeq  uint64 `json:"last_seq"`
}

// FaultKind discriminates injected faults.
type FaultKind int

// The injected fault kinds.
const (
	// FaultKill stops the writer mid-record: bytes before the fault
	// offset are written, the rest never are, and the log dies.
	FaultKill FaultKind = iota
	// FaultTruncate lets the writer run on until the After offset, then
	// truncates the stream back to Offset and dies — the lost-unsynced-
	// tail crash, where batches were acknowledged and then vanished.
	FaultTruncate
	// FaultFlip flips one bit at the fault offset once the stream has
	// passed it and lets the writer continue — latent media corruption
	// that only the next recovery can notice.
	FaultFlip
)

// Failpoint is a one-shot seeded fault. Offsets are stream offsets:
// cumulative record bytes, excluding segment headers, monotone across
// segment rolls.
type Failpoint struct {
	Kind   FaultKind
	Offset int64
	// After is the trigger offset for FaultTruncate (the stream keeps
	// growing past Offset and is cut back once After is crossed). Zero
	// means trigger at Offset.
	After int64
}

// segment is one live segment file.
type segment struct {
	name     string
	firstSeq uint64
	baseOff  int64 // stream offset of the segment's first record byte
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	mu   sync.Mutex
	opts Options

	f     *os.File  // active segment, nil until the first append
	segs  []segment // ascending by firstSeq; last is active
	fsize int64     // active segment file size
	off   int64     // stream offset: cumulative record bytes appended

	lastSeq uint64
	appends uint64
	syncs   uint64
	dirty   bool

	fp      *Failpoint
	dead    bool
	deadErr error // why the log died (ErrInjected, or the I/O error)
	closed  bool
	stop    chan struct{}
	done    chan struct{}
}

// Open scans the directory, repairs any torn tail, and returns a log
// positioned for appending, along with a summary of what it found. A
// CorruptionError means the log must not be served.
func Open(o Options) (*Log, RecoverInfo, error) {
	if o.Dir == "" {
		return nil, RecoverInfo{}, errors.New("wal: Options.Dir is required")
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	names, err := segmentNames(o.Dir)
	if err != nil {
		return nil, RecoverInfo{}, err
	}
	l := &Log{opts: o}
	var info RecoverInfo
	var expect uint64 // next expected batch seq; 0 = not yet known
	for i, name := range names {
		last := i == len(names)-1
		path := filepath.Join(o.Dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, info, err
		}
		if len(data) < hdrSize {
			// A crash during segment creation can leave a short header —
			// but only in the newest segment.
			if !last {
				return nil, info, &CorruptionError{Segment: name, Offset: 0, Reason: "segment shorter than its header"}
			}
			if err := os.Remove(path); err != nil {
				return nil, info, err
			}
			info.Truncated = true
			info.TornBytes += int64(len(data))
			continue
		}
		if string(data[:8]) != magic {
			return nil, info, &CorruptionError{Segment: name, Offset: 0, Reason: "bad segment magic"}
		}
		firstSeq := binary.LittleEndian.Uint64(data[8:hdrSize])
		if expect != 0 && firstSeq != expect {
			return nil, info, &CorruptionError{Segment: name, Offset: 8,
				Reason: fmt.Sprintf("segment starts at batch %d where %d was expected", firstSeq, expect)}
		}
		batches, keep, err := parseSegment(data, firstSeq, last, name)
		if err != nil {
			return nil, info, err
		}
		if keep < int64(len(data)) {
			if err := os.Truncate(path, keep); err != nil {
				return nil, info, err
			}
			info.Truncated = true
			info.TornBytes += int64(len(data)) - keep
		}
		for _, b := range batches {
			info.Batches++
			l.lastSeq = b.seq
			if b.epoch > info.MaxEpoch {
				info.MaxEpoch = b.epoch
			}
		}
		if len(batches) > 0 {
			expect = batches[len(batches)-1].seq + 1
		} else if expect == 0 {
			expect = firstSeq
		}
		l.segs = append(l.segs, segment{name: name, firstSeq: firstSeq, baseOff: l.off})
		l.off += keep - hdrSize
		l.fsize = keep
	}
	info.Segments = len(l.segs)
	info.LastSeq = l.lastSeq
	if len(l.segs) > 0 {
		path := filepath.Join(o.Dir, l.segs[len(l.segs)-1].name)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return nil, info, err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return nil, info, err
		}
		l.f = f
	} else {
		l.fsize = 0
	}
	if info.Truncated {
		syncDir(o.Dir)
	}
	if o.Policy == SyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	return l, info, nil
}

// segmentNames lists the segment files ascending by first sequence.
func segmentNames(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".seg") {
			names = append(names, n)
		}
	}
	sort.Strings(names) // zero-padded hex sorts numerically
	return names, nil
}

// batchRec is one parsed committed batch. Op payloads alias the scanned
// segment buffer and must not be retained past the caller's loop.
type batchRec struct {
	seq, epoch uint64
	ops        [][]byte
	begin      int64 // file offset of the BEGIN record
}

// parseSegment validates a segment's records and frames them into
// committed batches. keep is the byte length of the valid committed
// prefix (the truncation point when a torn tail or an uncommitted batch
// must be dropped); keep == len(data) when the segment is clean. Any
// damage that is provably not a torn tail returns a CorruptionError.
func parseSegment(data []byte, firstSeq uint64, last bool, name string) (batches []batchRec, keep int64, err error) {
	size := int64(len(data))
	type recRef struct {
		off  int64
		typ  byte
		body []byte
	}
	var recs []recRef
	tornAt := int64(-1)
	p := int64(hdrSize)
	for p < size {
		var reason string
		if size-p < recHdrSize {
			reason = "truncated record header"
		} else {
			n := binary.LittleEndian.Uint32(data[p:])
			sum := binary.LittleEndian.Uint32(data[p+4:])
			switch {
			case n == 0 || n > maxRecord:
				reason = fmt.Sprintf("implausible record length %d", n)
			case p+recHdrSize+int64(n) > size:
				reason = "record extends past end of segment"
			default:
				body := data[p+recHdrSize : p+recHdrSize+int64(n)]
				switch {
				case crc32.Checksum(body, castagnoli) != sum:
					reason = "record checksum mismatch"
				case body[0] < rBegin || body[0] > rCommit:
					reason = fmt.Sprintf("unknown record type %d", body[0])
				default:
					recs = append(recs, recRef{off: p, typ: body[0], body: body})
					p += recHdrSize + int64(n)
					continue
				}
			}
		}
		// The record at p is invalid. A torn tail has nothing valid after
		// it; anything else is mid-log corruption (a flipped length byte
		// masquerading as EOF must not silently swallow the committed
		// batches that follow it). A scan that runs out of budget cannot
		// tell the two apart, so it refuses the segment too.
		if !last {
			return nil, 0, &CorruptionError{Segment: name, Offset: p, Reason: reason}
		}
		switch found, exhausted := hasValidRecordAfter(data, p); {
		case exhausted:
			return nil, 0, &CorruptionError{Segment: name, Offset: p, Reason: fmt.Sprintf(
				"%s; the resync scan after it hashed %d× the segment size without an answer", reason, resyncHashFactor)}
		case found:
			return nil, 0, &CorruptionError{Segment: name, Offset: p, Reason: reason}
		}
		tornAt = p
		break
	}

	keep = size
	if tornAt >= 0 {
		keep = tornAt
	}
	expect := firstSeq
	var cur *batchRec
	pendingOps := 0
	corrupt := func(off int64, reason string) error {
		return &CorruptionError{Segment: name, Offset: off, Reason: reason}
	}
	for _, r := range recs {
		switch r.typ {
		case rBegin:
			if cur != nil {
				return nil, 0, corrupt(r.off, "BEGIN inside an open batch")
			}
			seq, nops, ok := decodeBegin(r.body[1:])
			if !ok {
				return nil, 0, corrupt(r.off, "malformed BEGIN payload")
			}
			if seq != expect {
				return nil, 0, corrupt(r.off, fmt.Sprintf("batch %d where %d was expected", seq, expect))
			}
			cur = &batchRec{seq: seq, begin: r.off}
			pendingOps = nops
		case rOp:
			if cur == nil {
				return nil, 0, corrupt(r.off, "OP outside a batch")
			}
			cur.ops = append(cur.ops, r.body[1:])
		case rCommit:
			if cur == nil {
				return nil, 0, corrupt(r.off, "COMMIT outside a batch")
			}
			seq, epoch, ok := decodeCommit(r.body[1:])
			if !ok || seq != cur.seq {
				return nil, 0, corrupt(r.off, "malformed or mismatched COMMIT")
			}
			if len(cur.ops) != pendingOps {
				return nil, 0, corrupt(r.off, fmt.Sprintf("batch %d has %d ops, BEGIN declared %d", seq, len(cur.ops), pendingOps))
			}
			cur.epoch = epoch
			batches = append(batches, *cur)
			cur = nil
			expect = seq + 1
		}
	}
	if cur != nil {
		// A batch begun but never committed: droppable only at the tail.
		if !last {
			return nil, 0, corrupt(cur.begin, fmt.Sprintf("uncommitted batch %d in a sealed segment", cur.seq))
		}
		keep = cur.begin
	}
	return batches, keep, nil
}

// hasValidRecordAfter reports whether writer-emitted records follow the
// invalid record at p — the resync scan distinguishing a torn tail
// (nothing valid follows) from mid-log corruption. Two guards keep
// caller-encoded op payloads inside the damaged record from
// impersonating records: when the invalid record's declared body lies
// within the segment (a CRC or type failure), the scan starts after that
// body, since every byte of it is this record's own payload; and a
// candidate only counts if records chain contiguously from it to the end
// of the segment (at most the final one cut off mid-record), which a
// frame embedded at a random payload offset essentially never does.
// exhausted reports that the scan's hashing budget (resyncHashFactor) ran
// out before an answer.
func hasValidRecordAfter(data []byte, p int64) (found, exhausted bool) {
	size := int64(len(data))
	start := p + 1
	if size-p >= recHdrSize {
		if n := binary.LittleEndian.Uint32(data[p:]); n >= 1 && n <= maxRecord && p+recHdrSize+int64(n) <= size {
			start = p + recHdrSize + int64(n)
		}
	}
	budget := resyncHashFactor * size
	for c := start; c+recHdrSize <= size; c++ {
		if chainsToEnd(data, c, &budget) {
			return true, false
		}
		if budget < 0 {
			return false, true
		}
	}
	return false, false
}

// resyncHashFactor caps the resync scan's hashing at this many times the
// segment size. Every candidate whose length word is plausible costs a
// CRC over its claimed body, so a segment crafted to make each offset
// claim a long body would make an uncapped scan quadratic. An honest one
// stays far below the cap: the chain that proves valid records follow is
// hashed once, at most the segment's size, and a false candidate inside
// caller-encoded payload bytes claims a length that is short, or
// implausible and rejected unhashed, at all but a few offsets.
const resyncHashFactor = 4

// chainsToEnd reports whether a well-formed record starts at c and
// records parse contiguously from there to the end of the segment. Only
// the final record may be incomplete (header or body cut off at EOF);
// any fully-contained invalid record mid-chain rejects the candidate.
// Each body it hashes is charged to budget, and it gives up once the
// budget is spent.
func chainsToEnd(data []byte, c int64, budget *int64) bool {
	size := int64(len(data))
	valid := false
	for c < size {
		if size-c < recHdrSize {
			break // final header cut off at EOF
		}
		n := binary.LittleEndian.Uint32(data[c:])
		if n == 0 || n > maxRecord {
			return false
		}
		if c+recHdrSize+int64(n) > size {
			break // final body cut off at EOF
		}
		body := data[c+recHdrSize : c+recHdrSize+int64(n)]
		if body[0] < rBegin || body[0] > rCommit {
			return false
		}
		if *budget -= int64(n); *budget < 0 {
			return false
		}
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(data[c+4:]) {
			return false
		}
		valid = true
		c += recHdrSize + int64(n)
	}
	return valid
}

func decodeBegin(p []byte) (seq uint64, nops int, ok bool) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, false
	}
	v, m := binary.Uvarint(p[n:])
	if m <= 0 || n+m != len(p) || v > maxRecord {
		return 0, 0, false
	}
	return seq, int(v), true
}

func decodeCommit(p []byte) (seq, epoch uint64, ok bool) {
	seq, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, 0, false
	}
	epoch, m := binary.Uvarint(p[n:])
	if m <= 0 || n+m != len(p) {
		return 0, 0, false
	}
	return seq, epoch, true
}

// encRecord frames a body as length | CRC32C | body.
func encRecord(typ byte, payload []byte) []byte {
	body := make([]byte, 1+len(payload))
	body[0] = typ
	copy(body[1:], payload)
	rec := make([]byte, recHdrSize+len(body))
	binary.LittleEndian.PutUint32(rec, uint32(len(body)))
	binary.LittleEndian.PutUint32(rec[4:], crc32.Checksum(body, castagnoli))
	copy(rec[recHdrSize:], body)
	return rec
}

// Replay calls fn for every committed batch with sequence greater than
// after, in order. The op payload slices alias a per-segment read buffer
// and must not be retained after fn returns. Replay assumes Open already
// validated and repaired the files.
func (l *Log) Replay(after uint64, fn func(seq, epoch uint64, ops [][]byte) error) error {
	l.mu.Lock()
	segs := make([]segment, len(l.segs))
	copy(segs, l.segs)
	dir := l.opts.Dir
	l.mu.Unlock()
	for i, seg := range segs {
		data, err := os.ReadFile(filepath.Join(dir, seg.name))
		if err != nil {
			return err
		}
		batches, _, err := parseSegment(data, seg.firstSeq, i == len(segs)-1, seg.name)
		if err != nil {
			return err
		}
		for _, b := range batches {
			if b.seq <= after {
				continue
			}
			if err := fn(b.seq, b.epoch, b.ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// Append writes one batch (BEGIN, the encoded ops, COMMIT) and, under
// SyncAlways, fsyncs before returning. seq must be exactly one past the
// last appended or recovered batch.
func (l *Log) Append(seq, epoch uint64, ops [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case l.closed:
		return ErrClosed
	case l.dead:
		return l.deadErr
	case seq != l.lastSeq+1:
		return fmt.Errorf("wal: batch %d out of order (last was %d)", seq, l.lastSeq)
	}
	var pay []byte
	pay = binary.AppendUvarint(pay, seq)
	pay = binary.AppendUvarint(pay, uint64(len(ops)))
	recs := make([][]byte, 0, len(ops)+2)
	recs = append(recs, encRecord(rBegin, pay))
	total := int64(len(recs[0]))
	for _, op := range ops {
		r := encRecord(rOp, op)
		recs = append(recs, r)
		total += int64(len(r))
	}
	pay = pay[:0]
	pay = binary.AppendUvarint(pay, seq)
	pay = binary.AppendUvarint(pay, epoch)
	commit := encRecord(rCommit, pay)
	recs = append(recs, commit)
	total += int64(len(commit))

	// Batches never span segments: roll before BEGIN when this batch
	// would overflow the active segment (but never leave a batch alone
	// past the threshold in an empty segment).
	if l.f == nil || (l.fsize > hdrSize && l.fsize+total > l.opts.SegmentBytes) {
		if err := l.rollLocked(seq); err != nil {
			return err
		}
	}
	// A failed or partial write mid-batch would leave garbage (or a
	// headless batch prefix) that later successful appends bury in the
	// middle of the segment, turning a runtime error into mid-log
	// corruption at the next Open. Rewind the whole batch on any write
	// error; if the rewind itself fails, the log is dead.
	startOff, startSize := l.off, l.fsize
	for _, rec := range recs {
		if err := l.writeRecordLocked(rec); err != nil {
			if errors.Is(err, ErrInjected) {
				return err
			}
			return l.rewindLocked(startOff, startSize, err)
		}
	}
	l.lastSeq = seq
	l.appends++
	l.dirty = true
	if l.opts.Policy == SyncAlways {
		return l.syncLocked()
	}
	return nil
}

// writeRecordLocked writes one record, honouring any armed failpoint
// whose offset the record's byte range covers.
func (l *Log) writeRecordLocked(rec []byte) error {
	if fp := l.fp; fp != nil {
		trigger := fp.Offset
		if fp.Kind == FaultTruncate && fp.After > trigger {
			trigger = fp.After
		}
		if trigger < l.off+int64(len(rec)) {
			return l.fireFaultLocked(fp, rec)
		}
	}
	if _, err := l.f.Write(rec); err != nil {
		return err
	}
	l.off += int64(len(rec))
	l.fsize += int64(len(rec))
	return nil
}

// rewindLocked restores the file to the pre-batch state after a write
// error: the file is truncated back to the last known-good offset and
// the write position reset, so the failed batch leaves no trace and the
// log can keep accepting appends. If the rewind itself fails the file
// may hold garbage past the committed prefix, so the log is marked dead
// — exactly as an injected crash would — and every later operation
// reports why.
func (l *Log) rewindLocked(off, fsize int64, cause error) error {
	err := func() error {
		if l.f == nil {
			return errors.New("no active segment")
		}
		if terr := l.f.Truncate(fsize); terr != nil {
			return terr
		}
		_, serr := l.f.Seek(fsize, io.SeekStart)
		return serr
	}()
	if err != nil {
		l.dead = true
		l.deadErr = fmt.Errorf("wal: log dead: write failed (%v) and rewind failed: %w", cause, err)
		return l.deadErr
	}
	l.off, l.fsize = off, fsize
	return cause
}

// fireFaultLocked executes a one-shot injected fault during the write of
// rec (which starts at stream offset l.off and file offset l.fsize).
func (l *Log) fireFaultLocked(fp *Failpoint, rec []byte) error {
	l.fp = nil
	k := fp.Offset - l.off // fault position within rec (clamped)
	if k < 0 {
		k = 0
	}
	if k > int64(len(rec)) {
		k = int64(len(rec))
	}
	switch fp.Kind {
	case FaultKill:
		if k > 0 {
			l.f.Write(rec[:k])
		}
		l.f.Sync()
		l.dead = true
		l.deadErr = ErrInjected
		return ErrInjected
	case FaultTruncate:
		// The stream ran past Offset (acknowledging batches) and now the
		// unsynced tail vanishes: cut every segment byte past the fault
		// offset, which may span segment rolls.
		l.f.Write(rec)
		l.truncateStreamLocked(fp.Offset)
		l.dead = true
		l.deadErr = ErrInjected
		return ErrInjected
	case FaultFlip:
		if _, err := l.f.Write(rec); err != nil {
			return err
		}
		pos := l.fsize + k
		var b [1]byte
		if _, err := l.f.ReadAt(b[:], pos); err == nil {
			b[0] ^= 1 << uint(fp.Offset%8)
			l.f.WriteAt(b[:], pos)
		}
		l.off += int64(len(rec))
		l.fsize += int64(len(rec))
		return nil
	}
	return nil
}

// truncateStreamLocked cuts the on-disk stream back to stream offset
// off: later segments are removed and the covering segment file is
// truncated.
func (l *Log) truncateStreamLocked(off int64) {
	for len(l.segs) > 1 && l.segs[len(l.segs)-1].baseOff >= off {
		seg := l.segs[len(l.segs)-1]
		l.f.Close()
		os.Remove(filepath.Join(l.opts.Dir, seg.name))
		l.segs = l.segs[:len(l.segs)-1]
		prev := filepath.Join(l.opts.Dir, l.segs[len(l.segs)-1].name)
		l.f, _ = os.OpenFile(prev, os.O_RDWR, 0)
	}
	seg := l.segs[len(l.segs)-1]
	keep := off - seg.baseOff
	if keep < 0 {
		keep = 0
	}
	if l.f != nil {
		l.f.Truncate(hdrSize + keep)
		l.f.Sync()
	}
	syncDir(l.opts.Dir)
}

// rollLocked seals the active segment and starts a fresh one whose first
// batch will be seq.
func (l *Log) rollLocked(seq uint64) error {
	if l.f != nil {
		if err := l.syncLocked(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f = nil
	}
	name := fmt.Sprintf("wal-%016x.seg", seq)
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, name), os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	var hdr [hdrSize]byte
	copy(hdr[:], magic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	syncDir(l.opts.Dir)
	l.f = f
	l.fsize = hdrSize
	l.segs = append(l.segs, segment{name: name, firstSeq: seq, baseOff: l.off})
	return nil
}

// Sync flushes buffered writes to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.dead {
		return l.deadErr
	}
	return l.syncLocked()
}

// syncLocked fsyncs the active segment. A failed fsync leaves the
// durability of everything since the last successful one unknowable
// (the kernel may have dropped the dirty pages while clearing the error),
// so the log is marked dead rather than risking acknowledged batches
// that a clean-looking disk no longer holds.
func (l *Log) syncLocked() error {
	if !l.dirty || l.f == nil {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		l.dead = true
		l.deadErr = fmt.Errorf("wal: log dead after fsync error: %w", err)
		return l.deadErr
	}
	l.dirty = false
	l.syncs++
	return nil
}

// syncLoop is the SyncInterval timer goroutine.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed && !l.dead {
				l.syncLocked()
			}
			l.mu.Unlock()
		}
	}
}

// TruncateBefore removes whole segments every batch of which has a
// sequence below seq — the checkpointer's cleanup after the cut is
// durable elsewhere. The active segment is never removed.
func (l *Log) TruncateBefore(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	removed := false
	for len(l.segs) >= 2 && l.segs[1].firstSeq <= seq {
		if err := os.Remove(filepath.Join(l.opts.Dir, l.segs[0].name)); err != nil && !os.IsNotExist(err) {
			return err
		}
		l.segs = l.segs[1:]
		removed = true
	}
	if removed {
		syncDir(l.opts.Dir)
	}
	return nil
}

// Arm installs a one-shot failpoint in the writer. Only the crash-fault
// harness calls this.
func (l *Log) Arm(fp Failpoint) {
	l.mu.Lock()
	l.fp = &fp
	l.mu.Unlock()
}

// Stats snapshots the writer counters. Bytes is the cumulative stream
// offset (record bytes appended since the log was created), monotone
// across segment rolls and truncation-by-checkpoint.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments: len(l.segs),
		Bytes:    l.off,
		Appends:  l.appends,
		Syncs:    l.syncs,
		LastSeq:  l.lastSeq,
	}
}

// SetNextSeq positions the log so the next Append must carry seq;
// recovery calls it when the checkpoint cut is newer than anything left
// in the log (a crash under fsync=interval/none can lose acked batches
// the checkpoint had already made durable). By calling it the caller
// asserts every batch up to seq-1 is durable elsewhere. It never
// rewinds. When the jump leaves existing segments behind — their newest
// batch is below seq-1 — appending seq into them would write a
// batch-sequence gap that the next Open rejects as corruption, so the
// segments (fully covered by the caller's checkpoint) are deleted and
// the next append starts a fresh segment whose header carries seq.
func (l *Log) SetNextSeq(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seq == 0 || l.lastSeq >= seq-1 {
		return nil
	}
	if len(l.segs) > 0 {
		if l.f != nil {
			if err := l.f.Close(); err != nil {
				return err
			}
			l.f = nil
		}
		for _, seg := range l.segs {
			if err := os.Remove(filepath.Join(l.opts.Dir, seg.name)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		l.segs = nil
		l.fsize = 0
		l.dirty = false
		syncDir(l.opts.Dir)
	}
	l.lastSeq = seq - 1
	return nil
}

// Close flushes and closes the log. Further operations return ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop, done := l.stop, l.done
	var err error
	if l.f != nil {
		if !l.dead {
			if serr := l.f.Sync(); serr != nil {
				err = serr
			}
		}
		if cerr := l.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		l.f = nil
	}
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// syncDir fsyncs a directory so renames and removals are durable; best
// effort on platforms where directories cannot be synced.
func syncDir(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
