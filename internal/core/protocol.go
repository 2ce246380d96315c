// Package core implements JVM-Bypass Shuffling (JBS), the paper's
// contribution: a native data-shuffling service that replaces Hadoop's
// HttpServlets with the MOFSupplier and its MOFCopiers with the NetMerger
// (Section III), running over internal/transport.
package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Protocol errors.
var (
	ErrBadMessage = errors.New("core: malformed JBS message")
	ErrRemote     = errors.New("core: remote fetch error")
	// ErrCorruptFrame marks a frame whose CRC32C does not match its
	// contents: the bytes were damaged between the peer's checksum and
	// ours (a flipped bit on the wire, a truncated write, a buffer
	// overwritten after send). The receiver tears the connection down and
	// the merger re-fetches the affected segments.
	ErrCorruptFrame = errors.New("core: frame checksum mismatch")
)

// castagnoli is the CRC32C polynomial table shared by every frame
// checksum. Castagnoli is hardware-accelerated on amd64/arm64, so the
// per-frame cost is a table-free instruction stream, not a bottleneck.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Message type tags.
const (
	msgFetchRequest byte = 1
	msgDataChunk    byte = 2
	// msgShed is a supplier's admission-control rejection of one fetch
	// request: the request was not queued, and the frame carries a
	// retry-after hint the merger honors with jittered backoff.
	msgShed byte = 3
	// msgCredit is a supplier's flow-control grant after its admission
	// ledger recovers from a shedding episode: each credit widens the
	// receiving merger's AIMD window toward this node by one slot.
	msgCredit byte = 4
	// msgCancel is a merger's best-effort withdrawal of one fetch
	// request: the hedging controller sends it on the losing side of a
	// speculative race so the supplier stops staging and transmitting a
	// segment nobody will use. It is advisory — a supplier that already
	// sent the data costs only duplicate bytes, never correctness.
	msgCancel byte = 5
)

// Every frame shares one layout prefix: [type:1][crc32c:4][body...].
// The checksum covers the body only (everything after the CRC field), so
// a frame is verified with one pass and no copying; the type byte is
// implicitly covered because a mistyped frame fails its length check
// before the CRC is consulted.
const frameCRCOff = 1
const frameBodyOff = 5

// Chunk flags.
const (
	flagLast  byte = 1 << 0
	flagError byte = 1 << 1
	// flagSized marks a chunk carrying the segment's total byte length
	// after the flags, letting the receiver size its reassembly buffer in
	// one allocation. The supplier sets it on the first chunk of a segment.
	flagSized byte = 1 << 2
)

// Chunk header sizes (type + crc + id + flags, optionally + total length).
const (
	chunkHeaderLen      = frameBodyOff + 8 + 1
	sizedChunkHeaderLen = chunkHeaderLen + 8
)

// maxSegmentTotal caps the segment size a sized chunk may announce. The
// receiver preallocates its reassembly buffer from this field, so an
// (already checksummed, but defense-in-depth) absurd value must fail
// decode rather than attempt a multi-exabyte allocation.
const maxSegmentTotal = int64(1) << 40

// checkFrameCRC verifies a frame's CRC32C over its body and returns
// ErrCorruptFrame (wrapped) on mismatch. Callers have already bounded
// len(buf) >= frameBodyOff.
func checkFrameCRC(buf []byte) error {
	want := binary.BigEndian.Uint32(buf[frameCRCOff:])
	if got := crc32.Update(0, castagnoli, buf[frameBodyOff:]); got != want {
		return fmt.Errorf("%w: type %d, %d bytes, crc %08x != %08x",
			ErrCorruptFrame, buf[0], len(buf), got, want)
	}
	return nil
}

// patchFrameCRC computes the CRC32C over the frame's body and writes it
// into the CRC field. frame must be the complete frame starting at its
// type byte.
func patchFrameCRC(frame []byte) {
	binary.BigEndian.PutUint32(frame[frameCRCOff:],
		crc32.Update(0, castagnoli, frame[frameBodyOff:]))
}

// FetchSpec identifies one segment to fetch: the segment of MapTask's MOF
// for the given reduce partition, served by the node at Addr.
type FetchSpec struct {
	// Addr is the MOFSupplier address on the node hosting the MOF.
	Addr string
	// MapTask is the producing map task id.
	MapTask string
	// Partition is the reduce partition.
	Partition int
}

// fetchRequest is the on-wire fetch request.
type fetchRequest struct {
	ID        uint64
	Partition uint32
	MapTask   string
}

// fetchRequestFixedLen is the fixed prefix of a fetch request:
// type + crc + id + partition + task-name length.
const fetchRequestFixedLen = frameBodyOff + 8 + 4 + 2

// fetchRequestLen returns the encoded size of a fetch request.
func fetchRequestLen(r fetchRequest) int {
	return fetchRequestFixedLen + len(r.MapTask)
}

// appendFetchRequest marshals a fetch request onto dst (which may be a
// pooled buffer) and returns the extended slice. The CRC is computed in
// place over the appended bytes, so the hot send path performs no extra
// allocation.
func appendFetchRequest(dst []byte, r fetchRequest) []byte {
	start := len(dst)
	var fixed [fetchRequestFixedLen]byte
	fixed[0] = msgFetchRequest
	binary.BigEndian.PutUint64(fixed[frameBodyOff:], r.ID)
	binary.BigEndian.PutUint32(fixed[frameBodyOff+8:], r.Partition)
	binary.BigEndian.PutUint16(fixed[frameBodyOff+12:], uint16(len(r.MapTask)))
	dst = append(dst, fixed[:]...)
	dst = append(dst, r.MapTask...)
	patchFrameCRC(dst[start:])
	return dst
}

// encodeFetchRequest marshals a fetch request.
func encodeFetchRequest(r fetchRequest) []byte {
	return appendFetchRequest(make([]byte, 0, fetchRequestLen(r)), r)
}

// decodeFetchRequest unmarshals a fetch request.
func decodeFetchRequest(buf []byte) (fetchRequest, error) {
	return decodeFetchRequestInterned(buf, nil)
}

// decodeFetchRequestInterned is decodeFetchRequest with map-task-name
// interning: a fetch stream names a handful of distinct MOFs thousands of
// times, so with a non-nil intern map the string is materialized once per
// distinct name instead of once per request.
func decodeFetchRequestInterned(buf []byte, intern map[string]string) (fetchRequest, error) {
	if len(buf) < fetchRequestFixedLen || buf[0] != msgFetchRequest {
		return fetchRequest{}, fmt.Errorf("%w: short or mistyped request (%d bytes)", ErrBadMessage, len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[frameBodyOff+12:]))
	if len(buf) != fetchRequestFixedLen+n {
		return fetchRequest{}, fmt.Errorf("%w: task name length %d vs %d", ErrBadMessage, n, len(buf)-fetchRequestFixedLen)
	}
	if err := checkFrameCRC(buf); err != nil {
		return fetchRequest{}, err
	}
	name := buf[fetchRequestFixedLen:]
	var task string
	if intern != nil {
		var ok bool
		if task, ok = intern[string(name)]; !ok { // lookup by []byte: no alloc
			task = string(name)
			intern[task] = task
		}
	} else {
		task = string(name)
	}
	return fetchRequest{
		ID:        binary.BigEndian.Uint64(buf[frameBodyOff:]),
		Partition: binary.BigEndian.Uint32(buf[frameBodyOff+8:]),
		MapTask:   task,
	}, nil
}

// dataChunk is one on-wire response chunk. A segment travels as a sequence
// of chunks of at most the transport buffer size; the final chunk carries
// flagLast. Failures travel as a chunk with flagError whose payload is the
// error text.
type dataChunk struct {
	ID     uint64
	Last   bool
	Failed bool
	// Sized marks the first chunk of a segment; Total is then the
	// segment's full byte length across all its chunks.
	Sized   bool
	Total   int64
	Payload []byte
}

// appendChunkHeader writes a chunk header onto dst — sized (with total)
// when flagSized is set — and returns the extended slice. The CRC field
// covers the header body AND the payload that will follow on the wire,
// so the payload is passed in for checksumming even though it is not
// appended here: the supplier sends it as a separate gather vector. The
// supplier appends into a per-connection scratch array so the hot send
// path builds headers without allocating.
func appendChunkHeader(dst []byte, id uint64, flags byte, total int64, payload []byte) []byte {
	start := len(dst)
	var hdr [sizedChunkHeaderLen]byte
	hdr[0] = msgDataChunk
	binary.BigEndian.PutUint64(hdr[frameBodyOff:], id)
	hdr[frameBodyOff+8] = flags
	n := chunkHeaderLen
	if flags&flagSized != 0 {
		binary.BigEndian.PutUint64(hdr[chunkHeaderLen:], uint64(total))
		n = sizedChunkHeaderLen
	}
	dst = append(dst, hdr[:n]...)
	crc := crc32.Update(0, castagnoli, dst[start+frameBodyOff:])
	crc = crc32.Update(crc, castagnoli, payload)
	binary.BigEndian.PutUint32(dst[start+frameCRCOff:], crc)
	return dst
}

// encodeDataChunk marshals a chunk, header and payload coalesced.
func encodeDataChunk(c dataChunk) []byte {
	var flags byte
	if c.Last {
		flags |= flagLast
	}
	if c.Failed {
		flags |= flagError
	}
	if c.Sized {
		flags |= flagSized
	}
	buf := appendChunkHeader(make([]byte, 0, sizedChunkHeaderLen+len(c.Payload)), c.ID, flags, c.Total, c.Payload)
	return append(buf, c.Payload...)
}

// Flow-control frame sizes (type + crc + fields).
const (
	shedFrameLen   = frameBodyOff + 8 + 8 // id + retry-after nanoseconds
	creditFrameLen = frameBodyOff + 4     // credit count
)

// appendShed marshals a shed frame onto dst and returns the extended
// slice. The supplier appends into per-connection scratch, so shedding
// under overload performs no allocation.
func appendShed(dst []byte, id uint64, retryAfter time.Duration) []byte {
	start := len(dst)
	var frame [shedFrameLen]byte
	frame[0] = msgShed
	binary.BigEndian.PutUint64(frame[frameBodyOff:], id)
	binary.BigEndian.PutUint64(frame[frameBodyOff+8:], uint64(retryAfter.Nanoseconds()))
	dst = append(dst, frame[:]...)
	patchFrameCRC(dst[start:])
	return dst
}

// decodeShed unmarshals a shed frame.
func decodeShed(buf []byte) (id uint64, retryAfter time.Duration, err error) {
	if len(buf) != shedFrameLen || buf[0] != msgShed {
		return 0, 0, fmt.Errorf("%w: short or mistyped shed frame (%d bytes)", ErrBadMessage, len(buf))
	}
	if err := checkFrameCRC(buf); err != nil {
		return 0, 0, err
	}
	ns := binary.BigEndian.Uint64(buf[frameBodyOff+8:])
	if ns > uint64(maxRetryAfter) {
		return 0, 0, fmt.Errorf("%w: shed retry-after %dns exceeds cap", ErrBadMessage, ns)
	}
	return binary.BigEndian.Uint64(buf[frameBodyOff:]), time.Duration(ns), nil
}

// maxRetryAfter caps the retry-after hint a merger will accept, so a
// corrupt or malicious frame cannot park a fetch for hours.
const maxRetryAfter = time.Minute

// appendCredit marshals a credit frame onto dst and returns the
// extended slice.
func appendCredit(dst []byte, credits uint32) []byte {
	start := len(dst)
	var frame [creditFrameLen]byte
	frame[0] = msgCredit
	binary.BigEndian.PutUint32(frame[frameBodyOff:], credits)
	dst = append(dst, frame[:]...)
	patchFrameCRC(dst[start:])
	return dst
}

// decodeCredit unmarshals a credit frame.
func decodeCredit(buf []byte) (uint32, error) {
	if len(buf) != creditFrameLen || buf[0] != msgCredit {
		return 0, fmt.Errorf("%w: short or mistyped credit frame (%d bytes)", ErrBadMessage, len(buf))
	}
	if err := checkFrameCRC(buf); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(buf[frameBodyOff:]), nil
}

// cancelFrameLen is the size of a cancel frame (type + crc + id).
const cancelFrameLen = frameBodyOff + 8

// appendCancel marshals a cancel frame onto dst and returns the
// extended slice. The merger appends into a pooled buffer, so
// cancelling a hedge loser performs no allocation.
func appendCancel(dst []byte, id uint64) []byte {
	start := len(dst)
	var frame [cancelFrameLen]byte
	frame[0] = msgCancel
	binary.BigEndian.PutUint64(frame[frameBodyOff:], id)
	dst = append(dst, frame[:]...)
	patchFrameCRC(dst[start:])
	return dst
}

// decodeCancel unmarshals a cancel frame.
func decodeCancel(buf []byte) (uint64, error) {
	if len(buf) != cancelFrameLen || buf[0] != msgCancel {
		return 0, fmt.Errorf("%w: short or mistyped cancel frame (%d bytes)", ErrBadMessage, len(buf))
	}
	if err := checkFrameCRC(buf); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(buf[frameBodyOff:]), nil
}

// decodeDataChunk unmarshals a chunk. The payload aliases buf.
func decodeDataChunk(buf []byte) (dataChunk, error) {
	if len(buf) < chunkHeaderLen || buf[0] != msgDataChunk {
		return dataChunk{}, fmt.Errorf("%w: short or mistyped chunk (%d bytes)", ErrBadMessage, len(buf))
	}
	if extra := buf[frameBodyOff+8] &^ (flagLast | flagError | flagSized); extra != 0 {
		return dataChunk{}, fmt.Errorf("%w: unknown chunk flags %#02x", ErrBadMessage, extra)
	}
	c := dataChunk{
		ID:     binary.BigEndian.Uint64(buf[frameBodyOff:]),
		Last:   buf[frameBodyOff+8]&flagLast != 0,
		Failed: buf[frameBodyOff+8]&flagError != 0,
		Sized:  buf[frameBodyOff+8]&flagSized != 0,
	}
	payload := buf[chunkHeaderLen:]
	if c.Sized {
		if len(buf) < sizedChunkHeaderLen {
			return dataChunk{}, fmt.Errorf("%w: sized chunk of %d bytes", ErrBadMessage, len(buf))
		}
		c.Total = int64(binary.BigEndian.Uint64(buf[chunkHeaderLen:]))
		if c.Total < 0 || c.Total > maxSegmentTotal {
			return dataChunk{}, fmt.Errorf("%w: segment size %d out of range", ErrBadMessage, c.Total)
		}
		payload = buf[sizedChunkHeaderLen:]
	}
	if err := checkFrameCRC(buf); err != nil {
		return dataChunk{}, err
	}
	c.Payload = payload
	return c, nil
}
