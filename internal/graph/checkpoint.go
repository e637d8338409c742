package graph

// Checkpoint files: one compacted CSR base persisted verbatim, so
// recovery can mmap the adjacency arenas back in without rebuilding them.
//
// Layout of ckpt-%016x.ck (all integers little-endian):
//
//	header (64 bytes): magic "GPMLCKP1", version u32, reserved u32,
//	    batch cut u64, epoch u64, node span u64, edge span u64,
//	    arena length L u64 (len(incEdge)), record offset u64
//	arena section (at 64): incOff (spanN+1)×4, incEdge L×4, incOther L×4,
//	    edgeSrc spanE×4, edgeTgt spanE×4, incKind L×1
//	records section (at record offset): per node then per edge, a uvarint
//	    liveness flag followed (when live) by the element record; edge
//	    endpoints are not stored — they are derived from edgeSrc/edgeTgt
//	footer: CRC32C u32 over everything before it
//
// The file is written to a .tmp sibling, fsynced, and renamed into place;
// the manifest (a tiny JSON file, also swapped atomically) names the
// checkpoint recovery should load, so a crash at any point leaves either
// the old or the new checkpoint fully intact. The loader verifies the
// CRC over the whole file, then carves the int32/kind arenas straight out
// of a read-only mmap of it (zero-copy on little-endian unix; a decoding
// copy elsewhere). The mapping backs the live CSR and is never unmapped —
// one per process boot, reclaimed by the OS at exit.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"unsafe"
)

const (
	ckptMagic    = "GPMLCKP1"
	ckptVersion  = 2
	ckptHdrSize  = 64
	manifestName = "MANIFEST"
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// manifest names the checkpoint recovery loads. It is swapped atomically
// after the checkpoint file itself is durable.
type manifest struct {
	Version    int    `json:"version"`
	Checkpoint string `json:"checkpoint"`
	BatchCut   uint64 `json:"batch_cut"`
	Epoch      uint64 `json:"epoch"`
}

// writeManifest atomically installs a manifest pointing at name.
func writeManifest(dir, name string, cut, epoch uint64) error {
	data, err := json.Marshal(manifest{Version: 1, Checkpoint: name, BatchCut: cut, Epoch: epoch})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	syncDirBestEffort(dir)
	return nil
}

// loadLatestCheckpoint loads the manifest's checkpoint, or an empty base
// when the directory is fresh. A manifest pointing at a missing or
// corrupt checkpoint is an error — never silently served as empty.
func loadLatestCheckpoint(dir string) (*CSR, uint64, uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return Snapshot(&Graph{}), 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, 0, 0, fmt.Errorf("graph: corrupt manifest: %w", err)
	}
	if m.Checkpoint == "" || strings.ContainsAny(m.Checkpoint, "/\\") {
		return nil, 0, 0, fmt.Errorf("graph: manifest names invalid checkpoint %q", m.Checkpoint)
	}
	base, cut, epoch, err := loadCheckpoint(filepath.Join(dir, m.Checkpoint))
	if err != nil {
		return nil, 0, 0, err
	}
	if cut != m.BatchCut {
		return nil, 0, 0, fmt.Errorf("graph: checkpoint %s has batch cut %d, manifest says %d", m.Checkpoint, cut, m.BatchCut)
	}
	return base, cut, epoch, nil
}

// removeStaleCheckpoints deletes every checkpoint file except keep. Best
// effort: a leftover file wastes disk but is never loaded (the manifest
// names exactly one).
func removeStaleCheckpoints(dir, keep string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		if n != keep && strings.HasPrefix(n, "ckpt-") && strings.HasSuffix(n, ".ck") {
			os.Remove(filepath.Join(dir, n))
		}
	}
	syncDirBestEffort(dir)
}

// crcWriter tees writes through a running CRC32C.
type crcWriter struct {
	w   *bufio.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.sum = crc32.Update(c.sum, ckptCRC, p)
	c.n += int64(len(p))
	return c.w.Write(p)
}

func (c *crcWriter) int32s(s []int32) error {
	var scratch [4096]byte
	for len(s) > 0 {
		n := len(s)
		if n > len(scratch)/4 {
			n = len(scratch) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(scratch[4*i:], uint32(s[i]))
		}
		if _, err := c.Write(scratch[:4*n]); err != nil {
			return err
		}
		s = s[n:]
	}
	return nil
}

func (c *crcWriter) kinds(s []StepKind) error {
	if len(s) == 0 {
		return nil
	}
	// StepKind is uint8, so the byte view is exact on any platform.
	_, err := c.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)))
	return err
}

// writeCheckpoint persists base to path atomically (tmp + fsync +
// rename + directory fsync).
func writeCheckpoint(path string, base *CSR, cut, epoch uint64) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = writeCheckpointTo(f, base, cut, epoch)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	syncDirBestEffort(filepath.Dir(path))
	return nil
}

// ckptRecOff is the file offset of the records section: the header, then
// 4 bytes per offset-table row, 9 per arena step and 8 per edge.
func ckptRecOff(spanN, spanE, arenaLen int) int64 {
	return ckptHdrSize + 4*int64(spanN+1) + 9*int64(arenaLen) + 8*int64(spanE)
}

func writeCheckpointTo(f *os.File, base *CSR, cut, epoch uint64) error {
	spanN, spanE := base.NodeIndexSpan(), base.EdgeIndexSpan()
	arenaLen := len(base.incEdge)
	recOff := ckptRecOff(spanN, spanE, arenaLen)

	cw := &crcWriter{w: bufio.NewWriterSize(f, 1<<20)}
	var hdr [ckptHdrSize]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], ckptVersion)
	binary.LittleEndian.PutUint64(hdr[16:], cut)
	binary.LittleEndian.PutUint64(hdr[24:], epoch)
	binary.LittleEndian.PutUint64(hdr[32:], uint64(spanN))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(spanE))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(arenaLen))
	binary.LittleEndian.PutUint64(hdr[56:], uint64(recOff))
	if _, err := cw.Write(hdr[:]); err != nil {
		return err
	}

	// incOff is len spanN+1 in a populated CSR, but a zero-value CSR (the
	// empty base) has it nil; write spanN+1 zeros then.
	incOff := base.incOff
	if len(incOff) != spanN+1 {
		incOff = make([]int32, spanN+1)
	}
	for _, s := range [][]int32{incOff, base.incEdge, base.incOther, base.edgeSrc, base.edgeTgt} {
		if err := cw.int32s(s); err != nil {
			return err
		}
	}
	if err := cw.kinds(base.incKind); err != nil {
		return err
	}
	if cw.n != recOff {
		return fmt.Errorf("graph: checkpoint arena section is %d bytes, expected %d", cw.n-ckptHdrSize, recOff-ckptHdrSize)
	}

	var p []byte
	flush := func() error {
		_, err := cw.Write(p)
		p = p[:0]
		return err
	}
	for i := 0; i < spanN; i++ {
		if isDead(base.deadN, i) {
			p = binary.AppendUvarint(p, 0)
			continue
		}
		n := &base.nodes[i]
		p = binary.AppendUvarint(p, 1)
		p = appendString(p, string(n.ID))
		p = appendStrings(p, n.Labels)
		p = appendProps(p, n.Props)
		if len(p) > 1<<16 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	for i := 0; i < spanE; i++ {
		if isDead(base.deadE, i) {
			p = binary.AppendUvarint(p, 0)
			continue
		}
		e := &base.edges[i]
		p = binary.AppendUvarint(p, 1)
		p = appendString(p, string(e.ID))
		p = append(p, byte(e.Direction))
		p = appendStrings(p, e.Labels)
		p = appendProps(p, e.Props)
		if len(p) > 1<<16 {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}

	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], cw.sum)
	if _, err := cw.w.Write(foot[:]); err != nil {
		return err
	}
	return cw.w.Flush()
}

// hostLittleEndian reports whether int32 memory order matches the file's
// little-endian encoding, enabling zero-copy arena carving.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// carver slices typed views out of a checkpoint buffer, zero-copy when
// alignment and endianness allow and by copy otherwise.
type carver struct {
	data []byte
	off  int64
}

func (c *carver) int32s(n int) []int32 {
	if n == 0 {
		return nil
	}
	b := c.data[c.off : c.off+4*int64(n)]
	c.off += 4 * int64(n)
	if hostLittleEndian && uintptr(unsafe.Pointer(&b[0]))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

func (c *carver) kinds(n int) []StepKind {
	if n == 0 {
		return nil
	}
	b := c.data[c.off : c.off+int64(n)]
	c.off += int64(n)
	return unsafe.Slice((*StepKind)(unsafe.Pointer(&b[0])), n)
}

// loadCheckpoint reads, verifies, and reconstitutes a checkpointed CSR.
// The adjacency arenas alias a read-only mmap of the file where the
// platform allows; record storage (ids, labels, properties) is decoded
// onto the heap.
func loadCheckpoint(path string) (*CSR, uint64, uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, 0, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, 0, err
	}
	data, merr := mapFileRO(f, int(st.Size()))
	if merr != nil {
		data, err = os.ReadFile(path)
		if err != nil {
			f.Close()
			return nil, 0, 0, err
		}
	}
	// The mapping (when used) outlives the fd; it is intentionally never
	// unmapped — it backs the live CSR for the rest of the process.
	f.Close()
	return decodeCheckpoint(path, data)
}

// decodeCheckpoint verifies and reconstitutes the checkpoint image data;
// path only names it in errors.
func decodeCheckpoint(path string, data []byte) (*CSR, uint64, uint64, error) {
	fail := func(format string, args ...any) (*CSR, uint64, uint64, error) {
		return nil, 0, 0, fmt.Errorf("graph: checkpoint %s "+format, append([]any{path}, args...)...)
	}
	n := int64(len(data)) - 4
	if n < ckptHdrSize {
		return fail("too short (%d bytes)", len(data))
	}
	if crc32.Checksum(data[:n], ckptCRC) != binary.LittleEndian.Uint32(data[n:]) {
		return fail("failed checksum verification")
	}
	if string(data[:8]) != ckptMagic {
		return fail("is not a checkpoint file")
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != ckptVersion {
		return fail("has unsupported version %d", v)
	}
	cut := binary.LittleEndian.Uint64(data[16:])
	epoch := binary.LittleEndian.Uint64(data[24:])
	// Every span is bounded by the file size before it sizes anything: a
	// row, a step and an edge each occupy at least four bytes.
	var geom [4]int
	for i := range geom {
		v := binary.LittleEndian.Uint64(data[32+8*i:])
		if v > uint64(n) {
			return fail("has inconsistent geometry")
		}
		geom[i] = int(v)
	}
	spanN, spanE, arenaLen, recOff := geom[0], geom[1], geom[2], int64(geom[3])
	if recOff != ckptRecOff(spanN, spanE, arenaLen) {
		return fail("has inconsistent geometry")
	}

	cv := &carver{data: data, off: ckptHdrSize}
	c := &CSR{elemCore: newElemCore(spanN, spanE)}
	c.incOff = cv.int32s(spanN + 1)
	c.incEdge = cv.int32s(arenaLen)
	c.incOther = cv.int32s(arenaLen)
	edgeSrc, edgeTgt := cv.int32s(spanE), cv.int32s(spanE)
	c.incKind = cv.kinds(arenaLen)

	d := bdec{buf: data[:n], off: int(recOff)}
	for i := 0; i < spanN && d.err == nil; i++ {
		if d.uvarint() == 0 {
			c.addNode(nil)
			continue
		}
		nd := Node{ID: NodeID(d.string()), Labels: d.strings(), Props: d.props()}
		c.addNode(&nd)
	}
	for i := 0; i < spanE && d.err == nil; i++ {
		if d.uvarint() == 0 {
			c.addEdge(nil, 0, 0)
			continue
		}
		ed := Edge{ID: EdgeID(d.string()), Direction: Direction(d.byte()), Labels: d.strings(), Props: d.props()}
		si, ti := edgeSrc[i], edgeTgt[i]
		if c.NodeByIndex(int(si)) == nil || c.NodeByIndex(int(ti)) == nil {
			return fail("edge %d has out-of-range endpoints", i)
		}
		ed.Source, ed.Target = c.nodes[si].ID, c.nodes[ti].ID
		c.addEdge(&ed, si, ti)
	}
	if d.err != nil || d.off != int(n) {
		return fail("has a malformed records section")
	}
	if !c.arenaValid() {
		return fail("has a malformed adjacency arena")
	}
	return c, cut, epoch, nil
}

// arenaValid range-checks a loaded arena against its core in one pass:
// the offset table starts at zero, never decreases and ends at the arena
// length, and every step names a live edge, a live neighbour and a known
// step kind — so Steps cannot index out of range.
func (c *CSR) arenaValid() bool {
	spanN := len(c.nodes)
	if c.incOff[0] != 0 || int(c.incOff[spanN]) != len(c.incEdge) {
		return false
	}
	for r := 0; r < spanN; r++ {
		if c.incOff[r] > c.incOff[r+1] {
			return false
		}
	}
	for k, e := range c.incEdge {
		if c.EdgeByIndex(int(e)) == nil || c.NodeByIndex(int(c.incOther[k])) == nil || c.incKind[k] > StepUndirected {
			return false
		}
	}
	return true
}

// syncDirBestEffort fsyncs a directory so renames and removals are
// durable where the platform supports it.
func syncDirBestEffort(dir string) {
	if f, err := os.Open(dir); err == nil {
		f.Sync()
		f.Close()
	}
}
