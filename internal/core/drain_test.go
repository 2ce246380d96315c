package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mof"
	"repro/internal/transport"
)

// TestDrainZeroInflightReturnsImmediately covers the trivial drain: with
// nothing in the pipeline Drain completes at once, and calling it again
// (including concurrently) observes the same completed drain.
func TestDrainZeroInflightReturnsImmediately(t *testing.T) {
	tr := transport.NewTCP()
	fx := newSupplierFixture(t, tr, "127.0.0.1:0", 1, 1)
	s := fx.supplier

	if s.Draining() {
		t.Fatal("fresh supplier reports draining")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("zero-inflight drain: %v", err)
	}
	if !s.Draining() {
		t.Fatal("supplier not draining after Drain")
	}
	// Double drain is idempotent: repeated and concurrent calls all wait
	// on the same (already complete) drain.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Drain(ctx); err != nil {
				t.Errorf("repeat drain: %v", err)
			}
		}()
	}
	wg.Wait()
}

// buildBigMOF writes a MOF of parts identical partitions of about
// segBytes each: large enough that transmitting one fills the loopback
// socket buffers when the client refuses to read, and equal in length so
// a DataCache can be sized in whole segments.
func buildBigMOF(t *testing.T, dir, task string, parts, segBytes int) (dataPath, indexPath string) {
	t.Helper()
	dataPath = filepath.Join(dir, task+".data")
	indexPath = filepath.Join(dir, task+".index")
	w, err := mof.NewWriter(dataPath, indexPath, parts)
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("x"), 1024)
	for p := 0; p < parts; p++ {
		if err := w.BeginSegment(p); err != nil {
			t.Fatal(err)
		}
		for written := 0; written < segBytes; written += len(val) {
			if err := w.Append([]byte(fmt.Sprintf("k%08d", written)), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dataPath, indexPath
}

// TestDrainWaitsForInflightThenSheds drives the full drain contract over
// a raw connection: a fetch mid-transmission holds the drain open (a
// short-deadline Drain times out), new requests arriving during the
// drain are shed with a retry-after hint, and once the client drains the
// in-flight response the supplier's Drain completes.
func TestDrainWaitsForInflightThenSheds(t *testing.T) {
	tr := transport.NewTCP()
	dir := t.TempDir()
	const segBytes = 16 << 20 // >> loopback socket buffering, so xmit blocks
	dataPath, indexPath := buildBigMOF(t, dir, "m-big", 1, segBytes)
	lookup := func(task string) (string, string, error) {
		if task != "m-big" {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return dataPath, indexPath, nil
	}
	s, err := NewMOFSupplier(SupplierConfig{
		Transport:      tr,
		Addr:           "127.0.0.1:0",
		BufferSize:     4 << 10,
		DataCacheBytes: 32 << 20,
	}, lookup)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, err := tr.Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(encodeFetchRequest(fetchRequest{ID: 1, MapTask: "m-big"})); err != nil {
		t.Fatal(err)
	}
	// The unread response wedges the transmit worker against socket
	// backpressure, holding pipeline occupancy at one.
	deadline := time.Now().Add(5 * time.Second)
	for s.Inflight() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight = %d, want 1", s.Inflight())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	err = s.Drain(ctx)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain with a wedged fetch: err = %v, want deadline exceeded", err)
	}

	// A request arriving while draining is shed, not served.
	if err := conn.Send(encodeFetchRequest(fetchRequest{ID: 2, MapTask: "m-big"})); err != nil {
		t.Fatal(err)
	}

	// Unwedge: consume the in-flight response. The shed for ID 2 arrives
	// interleaved with the data chunks for ID 1.
	var (
		got     []byte
		shedID  uint64
		sawShed bool
	)
	for {
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(msg) > 0 && msg[0] == msgShed {
			id, retryAfter, err := decodeShed(msg)
			if err != nil {
				t.Fatal(err)
			}
			if retryAfter <= 0 {
				t.Fatalf("shed retry-after = %v, want positive", retryAfter)
			}
			shedID, sawShed = id, true
			continue
		}
		chunk, err := decodeDataChunk(msg)
		if err != nil {
			t.Fatal(err)
		}
		if chunk.Failed {
			t.Fatalf("fetch failed: %s", chunk.Payload)
		}
		got = append(got, chunk.Payload...)
		if chunk.Last {
			break
		}
	}
	if !sawShed {
		// The shed may still be queued behind the last data chunk.
		msg, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if len(msg) == 0 || msg[0] != msgShed {
			t.Fatalf("expected shed frame, got type %d", msg[0])
		}
		shedID, _, err = decodeShed(msg)
		if err != nil {
			t.Fatal(err)
		}
	}
	if shedID != 2 {
		t.Fatalf("shed id = %d, want 2", shedID)
	}

	ix, err := mof.ReadIndex(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := ix.Entry(0)
	want, err := mof.ReadSegmentBytes(dataPath, entry)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("in-flight segment corrupted during drain: got %d bytes, want %d", len(got), len(want))
	}

	// With the pipeline empty the drain now completes.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(ctx2); err != nil {
		t.Fatalf("drain after unwedging: %v", err)
	}
	if n := s.Stats().DrainSheds; n != 1 {
		t.Fatalf("DrainSheds = %d, want 1", n)
	}
}

// TestDrainHandoffReroutesFetch proves the lossless-drain loop end to
// end in-process: a fetch aimed at a draining supplier is shed, parked,
// re-resolved to the peer that owns the shard now, and served by the
// peer — the merger's caller never sees an error.
func TestDrainHandoffReroutesFetch(t *testing.T) {
	tr := transport.NewTCP()
	dir := t.TempDir()
	paths := map[string][2]string{}
	segs := map[string][][]byte{}
	for i := 0; i < 2; i++ {
		task := fmt.Sprintf("m-%05d", i)
		_, data, index, raw := buildMOF(t, dir, task, 2)
		paths[task] = [2]string{data, index}
		segs[task] = raw
	}
	lookup := func(task string) (string, string, error) {
		p, ok := paths[task]
		if !ok {
			return "", "", fmt.Errorf("no MOF %s", task)
		}
		return p[0], p[1], nil
	}
	newSup := func() *MOFSupplier {
		s, err := NewMOFSupplier(SupplierConfig{Transport: tr, Addr: "127.0.0.1:0"}, lookup)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	a, b := newSup(), newSup()

	// The "registry": resolution returns the draining supplier once (the
	// stale ownership view), then the peer — exactly the window a real
	// handoff opens.
	var resolves atomic.Int64
	resolver := func(spec FetchSpec) (string, error) {
		if resolves.Add(1) <= 1 {
			return a.Addr(), nil
		}
		return b.Addr(), nil
	}
	m, err := NewNetMerger(MergerConfig{Transport: tr, Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := a.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	spec := FetchSpec{MapTask: "m-00000", Partition: 1} // Addr empty: resolver-addressed
	var got []byte
	err = m.Fetch([]FetchSpec{spec}, func(s FetchSpec, data []byte) error {
		got = append([]byte(nil), data...)
		return nil
	})
	if err != nil {
		t.Fatalf("fetch across drain handoff: %v", err)
	}
	if !bytes.Equal(got, segs["m-00000"][1]) {
		t.Fatal("handoff delivered wrong bytes")
	}
	st := m.Stats()
	if st.Sheds == 0 {
		t.Fatalf("stats = %+v: fetch was never shed by the draining supplier", st)
	}
	if st.Rerouted == 0 {
		t.Fatalf("stats = %+v: parked fetch was not rerouted to the peer", st)
	}
	if st.Errors != 0 {
		t.Fatalf("stats = %+v: drain handoff must be lossless", st)
	}
	if n := a.Stats().DrainSheds; n == 0 {
		t.Fatal("draining supplier recorded no drain sheds")
	}
	// The peer adds BytesServed after its last chunk's Send returns, which
	// can trail the merger's delivery. retire settles the pipeline
	// occupancy last, so Inflight() == 0 means settled.
	waitFor(t, 5*time.Second, "the peer supplier to settle", func() bool { return b.Inflight() == 0 })
	if bs := b.Stats().BytesServed; bs == 0 {
		t.Fatal("peer supplier served no bytes after handoff")
	}
}

// TestFetchEmptyAddrWithoutResolverFails pins the static-addressing
// contract: an empty Addr with no Resolver is an immediate per-spec
// error, not a hang.
func TestFetchEmptyAddrWithoutResolverFails(t *testing.T) {
	tr := transport.NewTCP()
	m, err := NewNetMerger(MergerConfig{Transport: tr})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	err = m.Fetch([]FetchSpec{{MapTask: "m-0", Partition: 0}}, func(FetchSpec, []byte) error {
		t.Fatal("deliver called for an unresolvable spec")
		return nil
	})
	if !errors.Is(err, errNoResolver) {
		t.Fatalf("err = %v, want errNoResolver", err)
	}
}
