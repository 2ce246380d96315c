package dfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

func newTestCluster(t *testing.T, blockSize int64, replication int, nodes ...string) *Cluster {
	t.Helper()
	if len(nodes) == 0 {
		nodes = []string{"n1", "n2", "n3"}
	}
	c, err := NewCluster(Config{BlockSize: blockSize, Replication: replication}, nodes, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func writeFile(t *testing.T, c *Cluster, path, node string, data []byte) {
	t.Helper()
	w, err := c.Create(path, node)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, c *Cluster, path, node string) []byte {
	t.Helper()
	r, err := c.Open(path, node)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWriteReadRoundTrip(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	data := bytes.Repeat([]byte("0123456789abcdef"), 20) // 320 bytes = 5 blocks
	writeFile(t, c, "/input/data", "n1", data)

	got := readAll(t, c, "/input/data", "n1")
	if !bytes.Equal(got, data) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
	}
	fi, err := c.Stat("/input/data")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != int64(len(data)) {
		t.Fatalf("size = %d, want %d", fi.Size, len(data))
	}
	if len(fi.Blocks) != 5 {
		t.Fatalf("blocks = %d, want 5", len(fi.Blocks))
	}
}

func TestPartialFinalBlock(t *testing.T) {
	c := newTestCluster(t, 100, 1)
	data := make([]byte, 250)
	for i := range data {
		data[i] = byte(i)
	}
	writeFile(t, c, "/f", "n1", data)
	fi, _ := c.Stat("/f")
	if len(fi.Blocks) != 3 || fi.Blocks[2].Size != 50 {
		t.Fatalf("blocks = %+v", fi.Blocks)
	}
	if !bytes.Equal(readAll(t, c, "/f", "n2"), data) {
		t.Fatal("content mismatch")
	}
}

func TestEmptyFile(t *testing.T) {
	c := newTestCluster(t, 100, 1)
	writeFile(t, c, "/empty", "n1", nil)
	fi, err := c.Stat("/empty")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size != 0 || len(fi.Blocks) != 0 {
		t.Fatalf("empty file metadata: %+v", fi)
	}
	if got := readAll(t, c, "/empty", "n1"); len(got) != 0 {
		t.Fatalf("read %d bytes from empty file", len(got))
	}
}

func TestLocalPlacement(t *testing.T) {
	c := newTestCluster(t, 64, 2)
	writeFile(t, c, "/f", "n2", make([]byte, 200))
	fi, _ := c.Stat("/f")
	for _, b := range fi.Blocks {
		if b.Hosts[0] != "n2" {
			t.Fatalf("primary replica on %s, want n2", b.Hosts[0])
		}
		if len(b.Hosts) != 2 {
			t.Fatalf("replicas = %d, want 2", len(b.Hosts))
		}
		if b.Hosts[1] == "n2" {
			t.Fatal("duplicate replica host")
		}
	}
}

func TestReplicationCappedByNodes(t *testing.T) {
	c := newTestCluster(t, 64, 5, "a", "b")
	writeFile(t, c, "/f", "a", make([]byte, 10))
	fi, _ := c.Stat("/f")
	if len(fi.Blocks[0].Hosts) != 2 {
		t.Fatalf("replicas = %d, want 2 (capped)", len(fi.Blocks[0].Hosts))
	}
}

func TestCreateExisting(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	writeFile(t, c, "/f", "n1", []byte("x"))
	if _, err := c.Create("/f", "n1"); !errors.Is(err, ErrExists) {
		t.Fatalf("err = %v, want ErrExists", err)
	}
}

func TestCreateUnknownNode(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	if _, err := c.Create("/f", "nope"); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestStatNotFound(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	if _, err := c.Stat("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := c.Open("/missing", "n1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("open err = %v, want ErrNotFound", err)
	}
}

func TestWriterDoubleClose(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	w, _ := c.Create("/f", "n1")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	if _, err := w.Write([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v, want ErrClosed", err)
	}
}

func TestList(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	writeFile(t, c, "/out/part-1", "n1", []byte("a"))
	writeFile(t, c, "/out/part-0", "n1", []byte("b"))
	writeFile(t, c, "/other", "n1", []byte("c"))
	got := c.List("/out/")
	if len(got) != 2 || got[0].Path != "/out/part-0" || got[1].Path != "/out/part-1" {
		t.Fatalf("List = %+v", got)
	}
}

func TestDelete(t *testing.T) {
	c := newTestCluster(t, 64, 1)
	writeFile(t, c, "/f", "n1", make([]byte, 128))
	fi, _ := c.Stat("/f")
	if err := c.Delete("/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file still visible after delete")
	}
	// Block files are gone from every replica host.
	for _, b := range fi.Blocks {
		for _, h := range b.Hosts {
			if _, err := os.Stat(c.blockPath(h, b.ID)); !os.IsNotExist(err) {
				t.Fatalf("block %d still on %s", b.ID, h)
			}
		}
	}
	if err := c.Delete("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}
}

func TestWriterAbort(t *testing.T) {
	c := newTestCluster(t, 64, 2)
	w, _ := c.Create("/f", "n1")
	if _, err := w.Write(make([]byte, 150)); err != nil { // two blocks flushed
		t.Fatal(err)
	}
	flushed := w.blocks
	w.Abort()
	w.Abort() // idempotent
	if _, err := c.Stat("/f"); !errors.Is(err, ErrNotFound) {
		t.Fatal("aborted file still visible")
	}
	for _, b := range flushed {
		for _, h := range b.Hosts {
			if _, err := os.Stat(c.blockPath(h, b.ID)); !os.IsNotExist(err) {
				t.Fatalf("aborted block %d still on %s", b.ID, h)
			}
		}
	}
	if len(c.blockBufs) != 1 {
		t.Fatal("Abort did not return the block buffer")
	}
	// The name is free again; Abort after Close leaves the file alone.
	writeFile(t, c, "/f", "n1", []byte("kept"))
	w2, _ := c.Create("/g", "n1")
	w2.Close()
	w2.Abort()
	if _, err := c.Stat("/g"); err != nil {
		t.Fatalf("Abort after Close removed the file: %v", err)
	}
	if got := readAll(t, c, "/f", "n1"); string(got) != "kept" {
		t.Fatalf("file re-created after abort reads %q", got)
	}

	// A Close that cannot flush its last block discards the file as Abort
	// does: the blocks it had flushed go too.
	w3, _ := c.Create("/h", "n1")
	w3.Write(make([]byte, 150))
	flushed = w3.blocks
	if err := os.RemoveAll(c.nodeDir["n1"]); err != nil {
		t.Fatal(err)
	}
	if err := w3.Close(); err == nil {
		t.Fatal("Close succeeded without its datanode")
	}
	if _, err := c.Stat("/h"); !errors.Is(err, ErrNotFound) {
		t.Fatal("file whose Close failed is still visible")
	}
	for _, b := range flushed {
		for _, h := range b.Hosts {
			if _, err := os.Stat(c.blockPath(h, b.ID)); !os.IsNotExist(err) {
				t.Fatalf("block %d of the failed file still on %s", b.ID, h)
			}
		}
	}
}

func TestSplitsAlignWithBlocks(t *testing.T) {
	c := newTestCluster(t, 100, 2)
	writeFile(t, c, "/f", "n1", make([]byte, 250))
	splits, err := c.Splits("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 3 {
		t.Fatalf("splits = %d, want 3", len(splits))
	}
	wantOff := []int64{0, 100, 200}
	wantLen := []int64{100, 100, 50}
	for i, s := range splits {
		if s.Offset != wantOff[i] || s.Length != wantLen[i] {
			t.Fatalf("split %d = %+v", i, s)
		}
		if len(s.Hosts) != 2 || s.Hosts[0] != "n1" {
			t.Fatalf("split %d hosts = %v", i, s.Hosts)
		}
	}
}

func TestOpenRange(t *testing.T) {
	c := newTestCluster(t, 10, 1)
	data := []byte("abcdefghijklmnopqrstuvwxyz")
	writeFile(t, c, "/f", "n1", data)
	r, err := c.OpenRange("/f", "n1", 5, 15)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(r)
	if string(got) != "fghijklmnopqrst" {
		t.Fatalf("range read = %q", got)
	}
}

func TestOpenRangeOutOfBounds(t *testing.T) {
	c := newTestCluster(t, 10, 1)
	writeFile(t, c, "/f", "n1", []byte("0123456789"))
	if _, err := c.OpenRange("/f", "n1", 5, 10); err == nil {
		t.Fatal("out-of-range read accepted")
	}
	if _, err := c.OpenRange("/f", "n1", -1, 2); err == nil {
		t.Fatal("negative offset accepted")
	}
}

func TestLocalityAccounting(t *testing.T) {
	c := newTestCluster(t, 1024, 1)
	writeFile(t, c, "/f", "n1", make([]byte, 100))
	readAll(t, c, "/f", "n1") // local
	readAll(t, c, "/f", "n2") // remote (replica only on n1)
	local, remote := c.LocalityStats()
	if local != 1 || remote != 1 {
		t.Fatalf("locality = %d/%d, want 1/1", local, remote)
	}
}

func TestChecksumDetectsCorruption(t *testing.T) {
	c := newTestCluster(t, 1024, 1)
	writeFile(t, c, "/f", "n1", []byte("precious bytes"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	// Corrupt the stored block on its only replica.
	p := c.blockPath(b.Hosts[0], b.ID)
	raw, _ := os.ReadFile(p)
	raw[0] ^= 0xff
	os.WriteFile(p, raw, 0o644)
	r, err := c.Open("/f", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); !errors.Is(err, ErrCorruptData) {
		t.Fatalf("err = %v, want ErrCorruptData", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{BlockSize: 0, Replication: 1},
		{BlockSize: 1, Replication: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	if _, err := NewCluster(Config{BlockSize: 1, Replication: 1}, nil, t.TempDir()); err == nil {
		t.Error("cluster with no nodes accepted")
	}
}

func TestDefaultBlockSizeIs256MB(t *testing.T) {
	if DefaultBlockSize != 256<<20 {
		t.Fatalf("DefaultBlockSize = %d, want 256 MB (paper Section V)", DefaultBlockSize)
	}
}

// Property: any content round-trips through any block size.
func TestRoundTripProperty(t *testing.T) {
	f := func(data []byte, blockSizeSeed uint8) bool {
		blockSize := int64(blockSizeSeed%200) + 1
		dir, err := os.MkdirTemp("", "dfsprop")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		c, err := NewCluster(Config{BlockSize: blockSize, Replication: 1}, []string{"a", "b"}, dir)
		if err != nil {
			return false
		}
		w, err := c.Create("/p", "a")
		if err != nil {
			return false
		}
		if _, err := w.Write(data); err != nil {
			return false
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := c.Open("/p", "b")
		if err != nil {
			return false
		}
		got, err := io.ReadAll(r)
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaFailoverOnMissingBlock(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	writeFile(t, c, "/f", "n1", []byte("replicated payload"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	if len(b.Hosts) != 2 {
		t.Fatalf("hosts = %v", b.Hosts)
	}
	// Remove the primary (reader-local) replica.
	if err := os.Remove(c.blockPath(b.Hosts[0], b.ID)); err != nil {
		t.Fatal(err)
	}
	got := readAll(t, c, "/f", b.Hosts[0])
	if string(got) != "replicated payload" {
		t.Fatalf("failover read = %q", got)
	}
	if c.Failovers() != 1 {
		t.Fatalf("failovers = %d, want 1", c.Failovers())
	}
}

func TestReplicaFailoverOnCorruptBlock(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	writeFile(t, c, "/f", "n1", []byte("precious"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	// Corrupt the local replica only.
	p := c.blockPath(b.Hosts[0], b.ID)
	raw, _ := os.ReadFile(p)
	raw[0] ^= 0xff
	os.WriteFile(p, raw, 0o644)
	got := readAll(t, c, "/f", b.Hosts[0])
	if string(got) != "precious" {
		t.Fatalf("failover read = %q", got)
	}
}

func TestAllReplicasBadFails(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	writeFile(t, c, "/f", "n1", []byte("doomed"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	for _, h := range b.Hosts {
		os.Remove(c.blockPath(h, b.ID))
	}
	r, err := c.Open("/f", "n1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(r); err == nil {
		t.Fatal("read succeeded with every replica gone")
	}
}

func TestRepairRestoresLostReplica(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	writeFile(t, c, "/f", "n1", []byte("repair me"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	os.Remove(c.blockPath(b.Hosts[0], b.ID))
	restored, err := c.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if restored != 1 {
		t.Fatalf("restored = %d, want 1", restored)
	}
	// The primary replica is back and readable without failover.
	before := c.Failovers()
	got := readAll(t, c, "/f", b.Hosts[0])
	if string(got) != "repair me" {
		t.Fatalf("read = %q", got)
	}
	if c.Failovers() != before {
		t.Fatal("read still needed failover after repair")
	}
}

func TestRepairRestoresCorruptReplica(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	writeFile(t, c, "/f", "n1", []byte("bitrot"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	p := c.blockPath(b.Hosts[1], b.ID)
	raw, _ := os.ReadFile(p)
	raw[0] ^= 0xff
	os.WriteFile(p, raw, 0o644)
	restored, err := c.Repair()
	if err != nil || restored != 1 {
		t.Fatalf("restored = %d, err = %v", restored, err)
	}
	data, _ := os.ReadFile(p)
	if string(data) != "bitrot" {
		t.Fatalf("replica content = %q", data)
	}
}

func TestRepairNoopOnHealthyCluster(t *testing.T) {
	c := newTestCluster(t, 64, 2)
	writeFile(t, c, "/f", "n1", make([]byte, 200))
	restored, err := c.Repair()
	if err != nil || restored != 0 {
		t.Fatalf("restored = %d, err = %v", restored, err)
	}
}

func TestRepairUnrecoverableBlock(t *testing.T) {
	c := newTestCluster(t, 1024, 2)
	writeFile(t, c, "/f", "n1", []byte("gone"))
	fi, _ := c.Stat("/f")
	b := fi.Blocks[0]
	for _, h := range b.Hosts {
		os.Remove(c.blockPath(h, b.ID))
	}
	if _, err := c.Repair(); err == nil {
		t.Fatal("unrecoverable block not reported")
	}
}

// allocatedBy returns the heap bytes fn allocates.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestWriterAllocatesOneBlockBuffer writes eight blocks through one
// FileWriter: the block buffer is filled, flushed and emptied, so the file
// costs at most the buffer's doubling up to one block (two blocks' worth),
// and nothing once the cluster's free list holds a buffer. A file that
// never fills a block must not cost one.
func TestWriterAllocatesOneBlockBuffer(t *testing.T) {
	const blockSize = 256 << 10
	c := newTestCluster(t, blockSize, 1, "n1")
	data := bytes.Repeat([]byte("0123456789abcdef"), 8*blockSize/16)
	chunk := func(path string) func() {
		return func() {
			w, err := c.Create(path, "n1")
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(data); off += 4096 {
				if _, err := w.Write(data[off : off+4096]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := allocatedBy(chunk("/cold")); got > 3*blockSize {
		t.Fatalf("writing 8 blocks with an empty free list allocated %d bytes, want under 3 blocks (%d)", got, 3*blockSize)
	}
	if got := allocatedBy(chunk("/warm")); got > blockSize/2 {
		t.Fatalf("writing 8 blocks with a buffer on the free list allocated %d bytes, want no block", got)
	}
	if !bytes.Equal(readAll(t, c, "/warm", "n1"), data) {
		t.Fatal("the file written through a reused buffer reads back wrong")
	}

	small := newTestCluster(t, 64<<20, 1, "n1")
	if got := allocatedBy(func() { writeFile(t, small, "/tiny", "n1", data[:1000]) }); got > 1<<20 {
		t.Fatalf("a 1000-byte file on 64 MiB blocks allocated %d bytes", got)
	}
}

// TestBlockBufferFreeListIsBounded opens more readers and writers at once
// than the free list may hold and closes them all: the list keeps one
// buffer per datanode and drops the rest.
func TestBlockBufferFreeListIsBounded(t *testing.T) {
	const blockSize = 4096
	c := newTestCluster(t, blockSize, 1, "n1", "n2")
	data := bytes.Repeat([]byte("x"), 3*blockSize)
	writeFile(t, c, "/f", "n1", data)
	var readers []io.ReadCloser
	for i := 0; i < 8; i++ {
		r, err := c.Open("/f", "n1")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, make([]byte, blockSize+1)); err != nil {
			t.Fatal(err)
		}
		readers = append(readers, r)
	}
	for _, r := range readers {
		r.Close()
		r.Close() // a second Close must not hand the buffer out twice
		if held := len(c.blockBufs); held > len(c.nodes) {
			t.Fatalf("free list holds %d buffers, cap is one per datanode (%d)", held, len(c.nodes))
		}
	}
	if held := len(c.blockBufs); held != len(c.nodes) {
		t.Fatalf("free list holds %d buffers after 8 readers closed, want %d", held, len(c.nodes))
	}
	a, b := c.takeBlockBuf(), c.takeBlockBuf()
	if &a[:1][0] == &b[:1][0] {
		t.Fatal("the free list handed out one buffer twice")
	}
	if c.takeBlockBuf() != nil {
		t.Fatal("the free list held more than its cap")
	}
}

// TestFailoverVerifiesTheReusedBuffer reads a file through a buffer that
// an earlier read left on the free list, with the preferred replica first
// corrupt (same length, one byte flipped) and then truncated: the bad
// replica's bytes land in the buffer, fail the block's checksum or length,
// and are replaced by the good replica's before anything is returned.
func TestFailoverVerifiesTheReusedBuffer(t *testing.T) {
	const blockSize = 1024
	c := newTestCluster(t, blockSize, 2, "n1", "n2")
	data := bytes.Repeat([]byte("precious"), 3*blockSize/8)
	writeFile(t, c, "/f", "n1", data)
	if !bytes.Equal(readAll(t, c, "/f", "n1"), data) { // leaves its buffer on the free list
		t.Fatal("clean read failed")
	}
	fi, _ := c.Stat("/f")
	failovers := 0
	for i, damage := range []func(raw []byte) []byte{
		func(raw []byte) []byte { raw[len(raw)/2] ^= 0xff; return raw },
		func(raw []byte) []byte { return raw[:len(raw)-1] },
	} {
		b := fi.Blocks[i]
		p := c.blockPath("n1", b.ID)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, damage(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if len(c.blockBufs) == 0 {
			t.Fatal("fixture error: no buffer on the free list to reuse")
		}
		if !bytes.Equal(readAll(t, c, "/f", "n1"), data) {
			t.Fatalf("read with damaged replica %d returned wrong bytes", i)
		}
		// Every block damaged so far fails over again on this read.
		if failovers += i + 1; c.Failovers() != failovers {
			t.Fatalf("failovers = %d, want %d after reading over %d damaged replicas", c.Failovers(), failovers, i+1)
		}
	}
	// With the other replica gone too, the damaged bytes must not be served.
	os.Remove(c.blockPath("n2", fi.Blocks[0].ID))
	r, err := c.Open("/f", "n1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := io.ReadAll(r); !errors.Is(err, ErrCorruptData) && !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("read of a block with no good replica: %v", err)
	}
}

// TestBlockBuffersUnderConcurrentFiles has several goroutines write and
// read back files of their own at once, all drawing on one two-buffer free
// list: a buffer handed to two users at a time would mix their bytes.
func TestBlockBuffersUnderConcurrentFiles(t *testing.T) {
	const blockSize = 4096
	c := newTestCluster(t, blockSize, 1, "n1", "n2")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := bytes.Repeat([]byte{byte('a' + g)}, 5*blockSize/2)
			for round := 0; round < 20; round++ {
				path := fmt.Sprintf("/f-%d-%d", g, round)
				w, err := c.Create(path, "n1")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Write(data); err != nil {
					t.Error(err)
					return
				}
				if err := w.Close(); err != nil {
					t.Error(err)
					return
				}
				r, err := c.Open(path, "n2")
				if err != nil {
					t.Error(err)
					return
				}
				got, err := io.ReadAll(r)
				r.Close()
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s read back wrong (%v)", path, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
