package graph

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkpointImage returns the bytes of a real checkpoint: a compacted
// overlay base of the conformance graph with a deleted node and edge, so
// the image carries dead holes as well as every step kind.
func checkpointImage(t testing.TB) []byte {
	t.Helper()
	ov := NewOverlay(Snapshot(conformanceGraph(t)), WithCompactThreshold(-1))
	if err := ov.Apply(ov.Begin().
		AddNode("extra", []string{"A"}, nil).
		AddEdge("ex1", "extra", "a", []string{"T"}, nil).
		DeleteEdge("e1").
		DeleteNode("c")); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckpt.ck")
	if err := writeCheckpoint(path, compactBase(ov.Snapshot()), 7, 3); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// reseal rewrites the CRC footer over a mutated image, so the mutation
// reaches the decoder instead of dying at the checksum.
func reseal(data []byte) []byte {
	n := len(data) - 4
	binary.LittleEndian.PutUint32(data[n:], crc32.Checksum(data[:n], ckptCRC))
	return data
}

// walkStore drives every read path of a loaded base; on a store the
// loader accepted none of it may panic.
func walkStore(c *CSR) {
	c.Nodes(func(n *Node) bool {
		_ = c.Node(n.ID).ID
		return true
	})
	c.Edges(func(e *Edge) bool { _ = c.Edge(e.ID).ID; return true })
	for i := 0; i < c.NodeIndexSpan(); i++ {
		c.Steps(i, func(edge, other int, kind StepKind) bool {
			_, _ = c.EdgeByIndex(edge).ID, c.NodeByIndex(other).ID
			_, _ = c.EdgeEnds(edge)
			_ = kind.String()
			return true
		})
	}
	for l := range c.LabelStats().NodeLabels {
		c.NodesWithLabel(l, func(n *Node) bool { _ = n.ID; return true })
	}
}

func TestCheckpointImageRoundtrip(t *testing.T) {
	data := checkpointImage(t)
	c, cut, epoch, err := decodeCheckpoint("img", data)
	if err != nil {
		t.Fatal(err)
	}
	if cut != 7 || epoch != 3 {
		t.Errorf("cut/epoch = %d/%d, want 7/3", cut, epoch)
	}
	if c.Node("c") != nil || c.Edge("e1") != nil || c.Node("extra") == nil {
		t.Error("loaded base does not carry the compacted state")
	}
	if want := ckptRecOff(c.NodeIndexSpan(), c.EdgeIndexSpan(), len(c.incEdge)); int64(len(data)) <= want {
		t.Errorf("image is %d bytes, records should start at %d", len(data), want)
	}
	walkStore(c)
}

// TestCheckpointArenaValidated: a CRC-valid image whose arena would send
// Steps out of range is refused at load, never served.
func TestCheckpointArenaValidated(t *testing.T) {
	img := checkpointImage(t)
	c, _, _, err := decodeCheckpoint("img", img)
	if err != nil {
		t.Fatal(err)
	}
	spanN, spanE, arenaLen := c.NodeIndexSpan(), c.EdgeIndexSpan(), len(c.incEdge)
	offAt := func(r int) int { return ckptHdrSize + 4*r }
	edgeAt := func(k int) int { return offAt(spanN+1) + 4*k }
	otherAt := func(k int) int { return edgeAt(arenaLen) + 4*k }
	srcAt := func(i int) int { return otherAt(arenaLen) + 4*i }
	kindAt := func(k int) int { return srcAt(2*spanE) + k }
	put := func(at int, v int32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[at:], uint32(v)) }
	}
	deadEdge, _ := Snapshot(conformanceGraph(t)).InternEdge("e1")
	cases := []struct {
		name   string
		mutate func([]byte)
		want   string
	}{
		{"incOff[0] != 0", put(offAt(0), 1), "adjacency arena"},
		{"incOff decreasing", put(offAt(1), int32(arenaLen)), "adjacency arena"},
		{"incOff end != arena length", put(offAt(spanN), int32(arenaLen-1)), "adjacency arena"},
		{"incEdge past the span", put(edgeAt(0), int32(spanE)), "adjacency arena"},
		{"incEdge negative", put(edgeAt(0), -1), "adjacency arena"},
		{"incEdge names a dead edge", put(edgeAt(0), int32(deadEdge)), "adjacency arena"},
		{"incOther past the span", put(otherAt(arenaLen-1), int32(spanN)), "adjacency arena"},
		{"incKind unknown", func(b []byte) { b[kindAt(0)] = byte(StepUndirected) + 1 }, "adjacency arena"},
		{"edgeSrc past the span", put(srcAt(1), int32(spanN)), "out-of-range endpoints"},
		{"span larger than the file", func(b []byte) { b[32+7] = 0x40 }, "inconsistent geometry"},
	}
	for _, tc := range cases {
		mut := append([]byte(nil), img...)
		tc.mutate(mut)
		if _, _, _, err := decodeCheckpoint("img", reseal(mut)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestCheckpointV1Refused: a file in the previous layout (sorted arena
// sections, version 1) is refused by version, through the manifest path
// too — recovery must fail loudly rather than serve an empty base.
func TestCheckpointV1Refused(t *testing.T) {
	var hdr [ckptHdrSize + 4]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	// An empty v1 base: spans 0, arena 0, records at 64 + 4 (one offset row).
	binary.LittleEndian.PutUint64(hdr[56:], ckptHdrSize+4)
	v1 := reseal(append(hdr[:ckptHdrSize], 0, 0, 0, 0, 0, 0, 0, 0))

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-old.ck"), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(dir, "ckpt-old.ck", 0, 0); err != nil {
		t.Fatal(err)
	}
	base, _, _, err := loadLatestCheckpoint(dir)
	if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("v1 checkpoint: base=%v err=%v, want an unsupported-version error", base, err)
	}
	if _, err := OpenDurable(DurableOptions{Dir: dir}); err == nil {
		t.Fatal("OpenDurable served a directory whose checkpoint is v1")
	}
}

// FuzzLoadCheckpoint mutates real checkpoint images and re-seals the CRC,
// so inputs get past the checksum and exercise the decoder itself: it
// must answer with an error or a store whose whole read surface works.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Add(checkpointImage(f))
	empty := filepath.Join(f.TempDir(), "empty.ck")
	if err := writeCheckpoint(empty, Snapshot(New()), 0, 0); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(empty)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 4 {
			data = reseal(append([]byte(nil), data...))
		}
		if c, _, _, err := decodeCheckpoint("fuzz", data); err == nil {
			walkStore(c)
		}
	})
}
