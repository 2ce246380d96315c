// Package dfs is a miniature Hadoop-style distributed filesystem: a
// namenode tracking files as sequences of fixed-size blocks, datanode block
// storage on local directories, write-local block placement (ReduceTasks
// "generate and store the final outputs to the disks local to themselves",
// Section II-A), and block-aligned splits for MapTask scheduling (delay
// scheduling launches up to 98% of MapTasks with local input).
//
// All nodes live in one process; the namespace is shared memory and block
// data lives under one temp directory per datanode.
package dfs

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Errors returned by the filesystem.
var (
	ErrNotFound    = errors.New("dfs: file not found")
	ErrExists      = errors.New("dfs: file already exists")
	ErrNoSuchNode  = errors.New("dfs: unknown datanode")
	ErrCorruptData = errors.New("dfs: block checksum mismatch")
	ErrClosed      = errors.New("dfs: writer closed")
)

// DefaultBlockSize is the paper's HDFS block size (256 MB). Tests and
// examples use much smaller blocks.
const DefaultBlockSize = 256 << 20

// Config configures a DFS cluster.
type Config struct {
	// BlockSize is the maximum block length in bytes.
	BlockSize int64
	// Replication is the number of replicas per block.
	Replication int
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.BlockSize <= 0 {
		return fmt.Errorf("dfs: block size %d must be positive", c.BlockSize)
	}
	if c.Replication <= 0 {
		return fmt.Errorf("dfs: replication %d must be positive", c.Replication)
	}
	return nil
}

// BlockInfo describes one stored block.
type BlockInfo struct {
	// ID is the globally unique block id.
	ID int64
	// Size is the block length in bytes.
	Size int64
	// Hosts are the datanodes holding replicas, primary first.
	Hosts []string
	// Checksum is the CRC-32 (IEEE) of the block contents.
	Checksum uint32
}

// FileInfo describes one file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks []BlockInfo
}

// Split is a block-aligned input range for a MapTask, with locality hints.
type Split struct {
	Path   string
	Offset int64
	Length int64
	// Hosts are the nodes where this split's block is local.
	Hosts []string
}

// Cluster is a DFS instance: one namenode plus per-node block stores.
type Cluster struct {
	cfg Config

	mu      sync.Mutex
	files   map[string]*FileInfo
	nodes   []string
	nodeDir map[string]string
	nextID  int64
	// rr rotates replica placement across nodes.
	rr int

	// localReads/remoteReads track block access locality; failovers counts
	// reads served by a non-preferred replica after a bad one.
	localReads, remoteReads, failovers int

	// blockBufs is a free list of BlockSize-capacity buffers that file
	// writers and range readers fill and hand back, so steady-state I/O
	// allocates (and zeroes) no block. It holds at most one buffer per
	// datanode, whatever the number or size of the files: a job's readers
	// (its map phase) and its writers (its reducers' tail) mostly take
	// turns.
	blockBufs chan []byte
}

// NewCluster creates a DFS over the given datanodes, with block storage
// under root/<node>/.
func NewCluster(cfg Config, nodes []string, root string) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) == 0 {
		return nil, errors.New("dfs: need at least one datanode")
	}
	c := &Cluster{
		cfg:     cfg,
		files:   make(map[string]*FileInfo),
		nodes:   append([]string(nil), nodes...),
		nodeDir: make(map[string]string),
		// Sized to what the list may retain, not to a number of sends.
		blockBufs: make(chan []byte, len(nodes)),
	}
	for _, n := range nodes {
		dir := filepath.Join(root, n)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("dfs: create datanode dir: %w", err)
		}
		c.nodeDir[n] = dir
	}
	return c, nil
}

// Nodes returns the datanode names.
func (c *Cluster) Nodes() []string {
	return append([]string(nil), c.nodes...)
}

// BlockSize returns the configured block size.
func (c *Cluster) BlockSize() int64 { return c.cfg.BlockSize }

// placeReplicas picks Replication hosts, preferring localNode first.
func (c *Cluster) placeReplicas(localNode string) []string {
	var hosts []string
	if localNode != "" {
		if _, ok := c.nodeDir[localNode]; ok {
			hosts = append(hosts, localNode)
		}
	}
	for len(hosts) < c.cfg.Replication && len(hosts) < len(c.nodes) {
		cand := c.nodes[c.rr%len(c.nodes)]
		c.rr++
		dup := false
		for _, h := range hosts {
			if h == cand {
				dup = true
				break
			}
		}
		if !dup {
			hosts = append(hosts, cand)
		}
	}
	return hosts
}

func (c *Cluster) blockPath(node string, id int64) string {
	return filepath.Join(c.nodeDir[node], fmt.Sprintf("blk_%d", id))
}

// takeBlockBuf returns an empty buffer of at least BlockSize capacity from
// the free list, or nil when the list is empty.
func (c *Cluster) takeBlockBuf() []byte {
	select {
	case b := <-c.blockBufs:
		return b[:0]
	default:
		return nil
	}
}

// putBlockBuf hands a buffer its user is done with to the free list. A
// buffer that cannot hold a whole block, or that finds the list full, is
// left to the garbage collector.
func (c *Cluster) putBlockBuf(b []byte) {
	if int64(cap(b)) < c.cfg.BlockSize {
		return
	}
	select {
	case c.blockBufs <- b:
	default:
	}
}

// Create opens a new file for writing. localNode (may be "") is the writer's
// node; its disk receives the primary replica of every block.
func (c *Cluster) Create(path, localNode string) (*FileWriter, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.files[path]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, path)
	}
	if localNode != "" {
		if _, ok := c.nodeDir[localNode]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchNode, localNode)
		}
	}
	// Reserve the name so concurrent creates collide deterministically.
	reserved := &FileInfo{Path: path}
	c.files[path] = reserved
	return &FileWriter{c: c, path: path, reserved: reserved, local: localNode}, nil
}

// FileWriter accumulates bytes into blocks. It ends in exactly one of
// Close, which commits the file, or Abort, which leaves nothing behind.
type FileWriter struct {
	c        *Cluster
	path     string
	reserved *FileInfo // the placeholder Create put under path
	local    string
	// buf holds the block being filled; it is written out and emptied,
	// keeping its capacity, every time it reaches BlockSize.
	buf    []byte
	blocks []BlockInfo
	size   int64
	closed bool
	err    error
}

// Write appends data, flushing full blocks to datanodes.
func (w *FileWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, ErrClosed
	}
	if w.err != nil {
		return 0, w.err
	}
	blockSize := int(w.c.cfg.BlockSize)
	for rest := p; len(rest) > 0; {
		n := min(len(rest), blockSize-len(w.buf))
		w.reserve(n)
		w.buf = append(w.buf, rest[:n]...)
		rest = rest[n:]
		if len(w.buf) == blockSize {
			if err := w.flushBlock(w.buf); err != nil {
				w.err = err
				return 0, err
			}
			w.buf = w.buf[:0]
		}
	}
	return len(p), nil
}

// reserve makes room for n more bytes in the block buffer. A writer's
// first buffer is a whole block from the cluster's free list when one is
// there. Otherwise the buffer doubles, clipped at BlockSize: a file that
// never fills a block never holds one, and a file that does allocates two
// blocks' worth on the way, where append's growth allocates over four.
func (w *FileWriter) reserve(n int) {
	need := len(w.buf) + n
	if need <= cap(w.buf) {
		return
	}
	if w.buf == nil {
		if w.buf = w.c.takeBlockBuf(); w.buf != nil {
			return
		}
	}
	grown := make([]byte, len(w.buf), min(max(2*cap(w.buf), need), int(w.c.cfg.BlockSize)))
	copy(grown, w.buf)
	w.buf = grown
}

func (w *FileWriter) flushBlock(data []byte) error {
	w.c.mu.Lock()
	id := w.c.nextID
	w.c.nextID++
	hosts := w.c.placeReplicas(w.local)
	w.c.mu.Unlock()

	for _, h := range hosts {
		if err := os.WriteFile(w.c.blockPath(h, id), data, 0o644); err != nil {
			return fmt.Errorf("dfs: write block on %s: %w", h, err)
		}
	}
	w.blocks = append(w.blocks, BlockInfo{
		ID:       id,
		Size:     int64(len(data)),
		Hosts:    hosts,
		Checksum: crc32.ChecksumIEEE(data),
	})
	w.size += int64(len(data))
	return nil
}

// Close flushes the final partial block and commits the file metadata. A
// Close that fails discards the file as Abort does.
func (w *FileWriter) Close() error {
	if w.closed {
		return ErrClosed
	}
	w.closed = true
	err := w.err
	if err == nil && len(w.buf) > 0 {
		err = w.flushBlock(w.buf)
	}
	if err != nil {
		w.discard()
		return err
	}
	w.c.putBlockBuf(w.buf)
	w.buf = nil
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	w.c.files[w.path] = &FileInfo{Path: w.path, Size: w.size, Blocks: w.blocks}
	return nil
}

// Abort gives up on a file that will not be completed: the replicas of
// every block already flushed are deleted, the reserved name is released,
// and the block buffer goes back to the cluster. It is idempotent and does
// nothing after Close.
func (w *FileWriter) Abort() {
	if !w.closed {
		w.closed = true
		w.discard()
	}
}

// discard undoes everything the writer left on the cluster.
func (w *FileWriter) discard() {
	for _, b := range w.blocks {
		for _, h := range b.Hosts {
			os.Remove(w.c.blockPath(h, b.ID))
		}
	}
	w.blocks = nil
	w.c.putBlockBuf(w.buf)
	w.buf = nil
	w.c.mu.Lock()
	defer w.c.mu.Unlock()
	if w.c.files[w.path] == w.reserved {
		delete(w.c.files, w.path)
	}
}

// Stat returns file metadata.
func (c *Cluster) Stat(path string) (FileInfo, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fi, ok := c.files[path]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return *fi, nil
}

// List returns metadata for every file whose path has the given prefix,
// sorted by path.
func (c *Cluster) List(prefix string) []FileInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []FileInfo
	for p, fi := range c.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, *fi)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Delete removes a file and its block replicas.
func (c *Cluster) Delete(path string) error {
	c.mu.Lock()
	fi, ok := c.files[path]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	delete(c.files, path)
	c.mu.Unlock()
	for _, b := range fi.Blocks {
		for _, h := range b.Hosts {
			os.Remove(c.blockPath(h, b.ID))
		}
	}
	return nil
}

// Repair scans every file's blocks and restores lost or corrupt replicas
// from a surviving good copy (the namenode's re-replication duty). It
// returns the number of replicas rewritten; an error is returned only if
// some block has no good replica left.
func (c *Cluster) Repair() (restored int, err error) {
	c.mu.Lock()
	files := make([]*FileInfo, 0, len(c.files))
	for _, fi := range c.files {
		files = append(files, fi)
	}
	c.mu.Unlock()

	var firstErr error
	for _, fi := range files {
		for _, b := range fi.Blocks {
			// Find one good replica.
			var good []byte
			for _, h := range b.Hosts {
				data, rerr := os.ReadFile(c.blockPath(h, b.ID))
				if rerr == nil && crc32.ChecksumIEEE(data) == b.Checksum {
					good = data
					break
				}
			}
			if good == nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("dfs: block %d of %s unrecoverable", b.ID, fi.Path)
				}
				continue
			}
			// Rewrite every bad or missing replica.
			for _, h := range b.Hosts {
				data, rerr := os.ReadFile(c.blockPath(h, b.ID))
				if rerr == nil && crc32.ChecksumIEEE(data) == b.Checksum {
					continue
				}
				if werr := os.WriteFile(c.blockPath(h, b.ID), good, 0o644); werr != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("dfs: restore block %d on %s: %w", b.ID, h, werr)
					}
					continue
				}
				restored++
			}
		}
	}
	return restored, firstErr
}

// Splits returns block-aligned input splits with locality hints.
func (c *Cluster) Splits(path string) ([]Split, error) {
	fi, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	var out []Split
	var off int64
	for _, b := range fi.Blocks {
		out = append(out, Split{
			Path:   path,
			Offset: off,
			Length: b.Size,
			Hosts:  append([]string(nil), b.Hosts...),
		})
		off += b.Size
	}
	return out, nil
}

// readBlock reads one block into buf, which must be b.Size long,
// preferring a replica on readerNode and verifying the checksum. A missing
// or corrupt replica fails over to the next one; only when every replica is
// bad does the read fail.
func (c *Cluster) readBlock(b BlockInfo, readerNode string, buf []byte) error {
	// Candidate order: the reader-local replica first, then the rest.
	hosts := make([]string, 0, len(b.Hosts))
	for _, h := range b.Hosts {
		if h == readerNode {
			hosts = append(hosts, h)
		}
	}
	for _, h := range b.Hosts {
		if h != readerNode {
			hosts = append(hosts, h)
		}
	}
	var lastErr error
	for i, host := range hosts {
		if err := readReplica(c.blockPath(host, b.ID), buf); err != nil {
			lastErr = fmt.Errorf("dfs: read block %d on %s: %w", b.ID, host, err)
			continue
		}
		if crc32.ChecksumIEEE(buf) != b.Checksum {
			lastErr = fmt.Errorf("%w: block %d on %s", ErrCorruptData, b.ID, host)
			continue
		}
		c.mu.Lock()
		if host == readerNode {
			c.localReads++
		} else {
			c.remoteReads++
		}
		if i > 0 {
			c.failovers++
		}
		c.mu.Unlock()
		return nil
	}
	return lastErr
}

// readReplica fills buf with the replica file at path, which must be
// exactly len(buf) long: a replica of another length cannot match the
// block's checksum.
func readReplica(path string, buf []byte) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() != int64(len(buf)) {
		return fmt.Errorf("%w: replica holds %d bytes, block has %d", ErrCorruptData, st.Size(), len(buf))
	}
	_, err = io.ReadFull(f, buf)
	return err
}

// LocalityStats reports how many block reads were node-local vs remote.
func (c *Cluster) LocalityStats() (local, remote int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localReads, c.remoteReads
}

// Failovers reports reads that succeeded only on a fallback replica.
func (c *Cluster) Failovers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failovers
}

// Open returns a reader over the whole file, as read from readerNode
// (which may be "" for an external reader).
func (c *Cluster) Open(path, readerNode string) (io.ReadCloser, error) {
	fi, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	return c.OpenRange(path, readerNode, 0, fi.Size)
}

// OpenRange returns a reader over [offset, offset+length) of the file.
func (c *Cluster) OpenRange(path, readerNode string, offset, length int64) (io.ReadCloser, error) {
	fi, err := c.Stat(path)
	if err != nil {
		return nil, err
	}
	if offset < 0 || length < 0 || offset+length > fi.Size {
		return nil, fmt.Errorf("dfs: range [%d,%d) outside file %s of %d bytes", offset, offset+length, path, fi.Size)
	}
	return &rangeReader{c: c, fi: fi, node: readerNode, off: offset, rem: length}, nil
}

// rangeReader streams a byte range across block boundaries.
type rangeReader struct {
	c    *Cluster
	fi   FileInfo
	node string
	off  int64 // absolute file offset of the next byte
	rem  int64
	// blk is the buffer every block of the range is read into, from the
	// cluster's free list when one was there and back to it on Close.
	blk []byte
	cur []byte // remainder of the current block, inside blk
}

func (r *rangeReader) Read(p []byte) (int, error) {
	if r.rem <= 0 {
		return 0, io.EOF
	}
	if len(r.cur) == 0 {
		if err := r.loadBlock(); err != nil {
			return 0, err
		}
	}
	n := len(p)
	if int64(n) > r.rem {
		n = int(r.rem)
	}
	if n > len(r.cur) {
		n = len(r.cur)
	}
	copy(p, r.cur[:n])
	r.cur = r.cur[n:]
	r.off += int64(n)
	r.rem -= int64(n)
	return n, nil
}

func (r *rangeReader) loadBlock() error {
	var start int64
	for _, b := range r.fi.Blocks {
		if r.off < start+b.Size {
			if int64(cap(r.blk)) < b.Size {
				if r.blk = r.c.takeBlockBuf(); r.blk == nil {
					r.blk = make([]byte, b.Size)
				}
			}
			data := r.blk[:b.Size]
			if err := r.c.readBlock(b, r.node, data); err != nil {
				return err
			}
			r.cur = data[r.off-start:]
			return nil
		}
		start += b.Size
	}
	return io.ErrUnexpectedEOF
}

// Close ends the read and returns the block buffer to the cluster.
func (r *rangeReader) Close() error {
	r.c.putBlockBuf(r.blk)
	r.blk, r.cur, r.rem = nil, nil, 0
	return nil
}
