package graph

// The durable overlay: OpenDurable layers the epoch-snapshot overlay over
// an on-disk data directory — the newest checkpointed CSR base plus a
// write-ahead log of every batch applied since (see internal/wal). Apply
// gains a log-then-publish hook: once the batch's ops have succeeded on
// the writer's private fork, they are encoded and appended to the WAL
// (fsynced per the configured policy) before the fork is published, so a
// batch is either durable-and-published or neither.
// Compaction doubles as the checkpointer — the freshly merged CSR base is
// persisted, the manifest swapped atomically, and the WAL prefix it
// covers truncated — and recovery is the inverse: load the manifest's
// checkpoint, replay the committed WAL suffix batch by batch, and come up
// on a store byte-identical to the pre-crash committed state.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"gpml/internal/value"
	"gpml/internal/wal"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Dir is the data directory (created if missing): checkpoints and the
	// manifest at the top level, WAL segments under wal/.
	Dir string
	// Fsync is the WAL fsync policy (default wal.SyncAlways).
	Fsync wal.SyncPolicy
	// SyncEvery is the wal.SyncInterval period (default 50ms).
	SyncEvery time.Duration
	// SegmentBytes is the WAL segment roll threshold (default 64 MiB).
	SegmentBytes int64
	// CompactThreshold overrides the overlay compaction threshold:
	// 0 = DefaultCompactThreshold, negative = disable automatic
	// compaction (Checkpoint still works).
	CompactThreshold int
}

// RecoveryStats reports what one Recover did.
type RecoveryStats struct {
	CheckpointBatch uint64 `json:"checkpoint_batch"` // batch cut of the checkpoint loaded
	ReplayedBatches uint64 `json:"replayed_batches"` // committed WAL batches replayed on top
	WALTornBytes    int64  `json:"wal_torn_bytes"`   // torn tail bytes truncated from the WAL
	WALTruncated    bool   `json:"wal_truncated"`    // whether any tail repair happened
}

// DurabilityStats is a point-in-time snapshot of the durability layer,
// surfaced by gpmld's /stats.
type DurabilityStats struct {
	Dir             string        `json:"dir"`
	Fsync           string        `json:"fsync"`
	WAL             wal.Stats     `json:"wal"`
	CheckpointBatch uint64        `json:"checkpoint_batch"` // cut of the newest durable checkpoint
	Checkpoints     uint64        `json:"checkpoints"`      // checkpoints written since open
	LastBatch       uint64        `json:"last_batch"`       // newest applied (logged) batch
	Replaying       bool          `json:"replaying"`        // true between OpenDurable and Recover
	Recovery        RecoveryStats `json:"recovery"`
	CheckpointErr   string        `json:"checkpoint_err,omitempty"` // last background checkpoint failure
}

// durability is the overlay's durability sidecar. The log pointer is
// written under both ov.mu and ckptMu (in Recover), so holders of either
// lock read it safely.
type durability struct {
	dir  string
	opts DurableOptions

	ckptMu      sync.Mutex
	log         *wal.Log
	ckptCut     uint64 // batch cut of the newest durable checkpoint
	checkpoints uint64
	ckptErr     error
	closed      bool
	recovered   RecoveryStats
}

// OpenDurable is recovery phase one: it loads the newest valid checkpoint
// from the data directory (an empty base when the directory is fresh) and
// returns an overlay that serves that state read-only. No WAL is touched
// yet — call Recover to replay the committed suffix and enable writes;
// Apply before Recover fails. The two phases exist so a server can
// register the store and answer health checks while replay runs.
func OpenDurable(o DurableOptions) (*Overlay, error) {
	if o.Dir == "" {
		return nil, errors.New("graph: DurableOptions.Dir is required")
	}
	if err := os.MkdirAll(filepath.Join(o.Dir, "wal"), 0o755); err != nil {
		return nil, err
	}
	base, cut, epoch, err := loadLatestCheckpoint(o.Dir)
	if err != nil {
		return nil, err
	}
	ov := &Overlay{compactThreshold: DefaultCompactThreshold}
	switch {
	case o.CompactThreshold < 0:
		ov.compactThreshold = 0
	case o.CompactThreshold > 0:
		ov.compactThreshold = o.CompactThreshold
	}
	ov.compactDone = sync.NewCond(&ov.mu)
	ov.baseBatch = cut
	ov.replaying = true
	ov.dur = &durability{dir: o.Dir, opts: o, ckptCut: cut}
	ov.cur.Store(newEpoch(base, epoch+1, cut))
	return ov, nil
}

// Recover is recovery phase two: open the WAL (repairing any torn tail),
// replay every committed batch past the checkpoint cut, and switch the
// overlay live for writes. It is idempotent — a second call is a no-op
// returning the first call's stats. A wal.CorruptionError means the log
// is damaged beyond the tail and the store must not be served.
func (ov *Overlay) Recover() (RecoveryStats, error) {
	ov.mu.Lock()
	d := ov.dur
	if d == nil {
		ov.mu.Unlock()
		return RecoveryStats{}, errors.New("graph: not a durable overlay")
	}
	if !ov.replaying {
		stats := d.recovered
		ov.mu.Unlock()
		return stats, nil
	}
	cut := ov.baseBatch
	ov.mu.Unlock()

	log, info, err := wal.Open(wal.Options{
		Dir:          filepath.Join(d.dir, "wal"),
		Policy:       d.opts.Fsync,
		SyncEvery:    d.opts.SyncEvery,
		SegmentBytes: d.opts.SegmentBytes,
	})
	if err != nil {
		return RecoveryStats{}, err
	}
	var replayed uint64
	err = log.Replay(cut, func(seq, epoch uint64, ops [][]byte) error {
		b := &Batch{ops: make([]op, 0, len(ops))}
		for _, p := range ops {
			o, err := decodeOp(p)
			if err != nil {
				return fmt.Errorf("graph: batch %d: %w", seq, err)
			}
			b.ops = append(b.ops, o)
		}
		if err := ov.applyReplay(seq, epoch, b); err != nil {
			return err
		}
		replayed++
		return nil
	})
	if err != nil {
		log.Close()
		return RecoveryStats{}, err
	}

	stats := RecoveryStats{
		CheckpointBatch: cut,
		ReplayedBatches: replayed,
		WALTornBytes:    info.TornBytes,
		WALTruncated:    info.Truncated,
	}
	ov.mu.Lock()
	s := ov.cur.Load().fork()
	s.seq = max(s.seq, info.MaxEpoch+1)
	// The checkpoint cut can be newer than anything left in the WAL (a
	// crash under fsync=interval/none loses acked batches the checkpoint
	// already covered); SetNextSeq then resets the log so the next append
	// opens a fresh segment instead of writing a sequence gap into the
	// old one.
	if err := log.SetNextSeq(s.batch + 1); err != nil {
		ov.mu.Unlock()
		log.Close()
		return RecoveryStats{}, err
	}
	ov.replaying = false
	d.ckptMu.Lock()
	d.log = log
	d.recovered = stats
	d.ckptMu.Unlock()
	ov.publishLocked(s)
	ov.maybeCompactLocked(s)
	ov.mu.Unlock()
	return stats, nil
}

// applyReplay applies one recovered batch through Apply's commit path,
// minus the WAL append (the batch is already durable) and the compaction
// trigger (one pass at the end of Recover suffices). The epoch is pinned
// to the batch's recorded commit epoch so recovered epochs are never below
// pre-crash committed ones.
func (ov *Overlay) applyReplay(seq, epoch uint64, b *Batch) error {
	ov.mu.Lock()
	defer ov.mu.Unlock()
	if next := ov.cur.Load().batch + 1; seq != next {
		return fmt.Errorf("graph: replay gap: batch %d where %d was expected", seq, next)
	}
	if _, err := ov.commitLocked(b, epoch, nil); err != nil {
		return fmt.Errorf("graph: replay of batch %d: %w", seq, err)
	}
	return nil
}

// logBatchLocked encodes and appends one batch to the WAL. Callers hold
// ov.mu (which also protects the log pointer read).
func (d *durability) logBatchLocked(seq, epoch uint64, b *Batch) error {
	if d.log == nil {
		return errors.New("graph: durable overlay not recovered; call Recover before Apply")
	}
	ops := make([][]byte, len(b.ops))
	for i := range b.ops {
		ops[i] = encodeOp(&b.ops[i])
	}
	return d.log.Append(seq, epoch, ops)
}

// checkpoint persists base (which materializes every batch up to and
// including cut) and retires the WAL prefix it covers. Calls with a cut
// at or below the newest durable checkpoint are no-ops, which makes the
// compactor's background call and an explicit Checkpoint safely
// concurrent.
func (d *durability) checkpoint(base *CSR, cut, epoch uint64) error {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed || cut <= d.ckptCut {
		return nil
	}
	name := fmt.Sprintf("ckpt-%016x.ck", cut)
	err := func() error {
		if err := writeCheckpoint(filepath.Join(d.dir, name), base, cut, epoch); err != nil {
			return err
		}
		return writeManifest(d.dir, name, cut, epoch)
	}()
	d.ckptErr = err
	if err != nil {
		return err
	}
	d.ckptCut = cut
	d.checkpoints++
	if d.log != nil {
		if terr := d.log.TruncateBefore(cut + 1); terr != nil && !errors.Is(terr, wal.ErrClosed) {
			d.ckptErr = terr
		}
	}
	removeStaleCheckpoints(d.dir, name)
	return d.ckptErr
}

// Checkpoint synchronously compacts and persists everything applied
// before the call, then truncates the WAL prefix the checkpoint covers.
// On a non-durable overlay it is an error.
func (ov *Overlay) Checkpoint() error {
	ov.mu.Lock()
	d := ov.dur
	replaying := ov.replaying
	ov.mu.Unlock()
	if d == nil {
		return errors.New("graph: not a durable overlay")
	}
	if replaying {
		return errors.New("graph: durable overlay not recovered")
	}
	ov.Compact()
	ov.mu.Lock()
	cur := ov.cur.Load()
	base, cut, epoch := cur.base, ov.baseBatch, cur.seq
	ov.mu.Unlock()
	// Compact's own background checkpoint usually already covered cut, in
	// which case this is a no-op; if it failed, this retries and surfaces
	// the error.
	return d.checkpoint(base, cut, epoch)
}

// CloseDurable drains any in-flight compaction, flushes the WAL, and
// closes it. Further Applies fail. Safe to call more than once, and a
// no-op on non-durable overlays.
func (ov *Overlay) CloseDurable() error {
	d := ov.durable()
	if d == nil {
		return nil
	}
	ov.Wait()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	if d.log == nil {
		return nil
	}
	serr := d.log.Sync()
	cerr := d.log.Close()
	if serr != nil && !errors.Is(serr, wal.ErrInjected) {
		return serr
	}
	return cerr
}

// DurabilityStats snapshots the durability layer (zero value on a
// non-durable overlay).
func (ov *Overlay) DurabilityStats() DurabilityStats {
	ov.mu.Lock()
	d := ov.dur
	last := ov.cur.Load().batch
	replaying := ov.replaying
	ov.mu.Unlock()
	if d == nil {
		return DurabilityStats{}
	}
	d.ckptMu.Lock()
	st := DurabilityStats{
		Dir:             d.dir,
		Fsync:           d.opts.Fsync.String(),
		CheckpointBatch: d.ckptCut,
		Checkpoints:     d.checkpoints,
		LastBatch:       last,
		Replaying:       replaying,
		Recovery:        d.recovered,
	}
	if d.ckptErr != nil {
		st.CheckpointErr = d.ckptErr.Error()
	}
	log := d.log
	d.ckptMu.Unlock()
	if log != nil {
		st.WAL = log.Stats()
	}
	return st
}

// ArmWALFailpoint installs a one-shot crash fault in the WAL writer; the
// fault-injection harness's hook into a live durable overlay.
func (ov *Overlay) ArmWALFailpoint(fp wal.Failpoint) error {
	d := ov.durable()
	if d == nil {
		return errors.New("graph: not a durable overlay")
	}
	d.ckptMu.Lock()
	log := d.log
	d.ckptMu.Unlock()
	if log == nil {
		return errors.New("graph: durable overlay not recovered")
	}
	log.Arm(fp)
	return nil
}

// durable returns the durability sidecar, nil on plain overlays.
func (ov *Overlay) durable() *durability {
	ov.mu.Lock()
	d := ov.dur
	ov.mu.Unlock()
	return d
}

// DurabilitySource is a store that exposes durability statistics; the
// server's /stats endpoint surfaces them when its store implements it.
type DurabilitySource interface {
	DurabilityStats() DurabilityStats
}

// StoreEpoch reports the store's current epoch number: the snapshot
// sequence for epoch sources, zero for immutable stores. The query layer
// tags cached plans with it so InvalidateBelow can retire plans compiled
// against pre-recovery epochs.
func StoreEpoch(s Store) uint64 {
	if e, ok := s.(EpochSource); ok {
		s = e.PinEpoch()
	}
	if q, ok := s.(interface{ Seq() uint64 }); ok {
		return q.Seq()
	}
	return 0
}

// --- op codec ---
//
// One batch op encodes as a type byte followed by type-specific fields:
// strings and labels are uvarint-length-prefixed, property maps are
// (uvarint count, then key/value pairs sorted by key), values are a kind
// byte plus kind-specific payload. The encoding is the WAL's op payload
// and the checkpoint's record body, so it must stay stable across
// versions.

func encodeOp(o *op) []byte {
	p := []byte{byte(o.kind)}
	p = appendString(p, o.id)
	switch o.kind {
	case opAddNode:
		p = appendStrings(p, o.labels)
		p = appendProps(p, o.props)
	case opAddEdge:
		p = appendString(p, string(o.src))
		p = appendString(p, string(o.dst))
		p = append(p, byte(o.dir))
		p = appendStrings(p, o.labels)
		p = appendProps(p, o.props)
	case opDelNode, opDelEdge:
		// id only
	case opSetNodeProp, opSetEdgeProp:
		p = appendString(p, o.key)
		p = appendValue(p, o.val)
	case opSetNodeLabels:
		p = appendStrings(p, o.labels)
	}
	return p
}

func decodeOp(p []byte) (op, error) {
	d := bdec{buf: p}
	kind := opKind(d.byte())
	o := op{kind: kind, id: d.string()}
	switch kind {
	case opAddNode:
		o.labels = d.strings()
		o.props = d.props()
	case opAddEdge:
		o.src = NodeID(d.string())
		o.dst = NodeID(d.string())
		o.dir = Direction(d.byte())
		o.labels = d.strings()
		o.props = d.props()
	case opDelNode, opDelEdge:
	case opSetNodeProp, opSetEdgeProp:
		o.key = d.string()
		o.val = d.value()
	case opSetNodeLabels:
		o.labels = d.strings()
	default:
		return op{}, fmt.Errorf("unknown op kind %d", kind)
	}
	if err := d.finish(); err != nil {
		return op{}, fmt.Errorf("op kind %d: %w", kind, err)
	}
	return o, nil
}

func appendString(p []byte, s string) []byte {
	p = binary.AppendUvarint(p, uint64(len(s)))
	return append(p, s...)
}

func appendStrings(p []byte, ss []string) []byte {
	p = binary.AppendUvarint(p, uint64(len(ss)))
	for _, s := range ss {
		p = appendString(p, s)
	}
	return p
}

func appendProps(p []byte, props map[string]value.Value) []byte {
	p = binary.AppendUvarint(p, uint64(len(props)))
	keys := make([]string, 0, len(props))
	for k := range props {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p = appendString(p, k)
		p = appendValue(p, props[k])
	}
	return p
}

func appendValue(p []byte, v value.Value) []byte {
	p = append(p, byte(v.Kind()))
	switch v.Kind() {
	case value.KindNull:
	case value.KindString:
		s, _ := v.AsString()
		p = appendString(p, s)
	case value.KindInt:
		i, _ := v.AsInt()
		p = binary.AppendVarint(p, i)
	case value.KindFloat:
		f, _ := v.AsFloat()
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(f))
	case value.KindBool:
		b, _ := v.AsBool()
		if b {
			p = append(p, 1)
		} else {
			p = append(p, 0)
		}
	}
	return p
}

// bdec is a forgiving byte-stream decoder: the first malformed read sets
// the error and every later read returns zero values, so decode code
// reads straight through and checks finish once. Decoded strings copy out
// of the input buffer (WAL replay buffers are transient).
type bdec struct {
	buf []byte
	off int
	err error
}

func (d *bdec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("truncated payload at offset %d", d.off)
	}
}

func (d *bdec) finish() error {
	if d.err == nil && d.off != len(d.buf) {
		return fmt.Errorf("%d trailing bytes", len(d.buf)-d.off)
	}
	return d.err
}

func (d *bdec) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail()
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) string() string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *bdec) strings() []string {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		ss = append(ss, d.string())
	}
	return ss
}

func (d *bdec) props() map[string]value.Value {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	m := make(map[string]value.Value, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		k := d.string()
		m[k] = d.value()
	}
	return m
}

func (d *bdec) value() value.Value {
	switch value.Kind(d.byte()) {
	case value.KindNull:
		return value.Value{}
	case value.KindString:
		return value.Str(d.string())
	case value.KindInt:
		return value.Int(d.varint())
	case value.KindFloat:
		if d.err != nil || len(d.buf)-d.off < 8 {
			d.fail()
			return value.Value{}
		}
		bits := binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
		return value.Float(math.Float64frombits(bits))
	case value.KindBool:
		return value.Bool(d.byte() != 0)
	default:
		d.fail()
		return value.Value{}
	}
}
