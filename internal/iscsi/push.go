package iscsi

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Push wire format. An OpReplicaPush PDU carries one replication
// stream's entries. Its header names the stream and the group shape:
//
//	off 4    : mode  (replication mode the frames were encoded in)
//	off 5    : shard (stream shard index)
//	off 6-7  : vol   (stream volume id)
//	off 28   : k     (group data units / reconstruction quorum)
//	off 29   : n     (group size)
//	off 30   : idx   (the stripe unit this replica stores)
//	off 31-43: reserved, zero
//
// Zero geometry is a mirror push: every frame decodes to a whole
// block. The data segment is a count-prefixed entry list:
//
//	off 0: count (uint32)
//	then, per entry:
//	  off +0 : seq      (uint64)
//	  off +8 : lba      (uint64)
//	  off +16: hash     (uint64)  content hash of the decoded new block
//	  off +24: frameLen (uint32)  0 = by reference, no frame follows
//	  off +28: frame    (frameLen bytes, an xcode frame)
//
// A by-ref entry ships no frame: its nonzero content hash is the
// payload, and the replica materializes the block by copying one it
// already verifiably holds with that content. In a group push each
// frame encodes one stripe unit and the hash covers the new unit.
//
// The response is an OpResp whose data segment holds one status byte
// per entry, in entry order, so one refused entry reports its own
// status without failing its push-mates. A by-ref entry the replica
// cannot resolve reports StatusRefMiss, and so does every later entry
// of the push, applied or not: the initiator re-ships that suffix by
// value with the same seqs, so the stream's seq cursor must not have
// moved past any of them.
const (
	// pushCountLen prefixes the data segment with the entry count.
	pushCountLen = 4
	// BatchEntryOverhead is the fixed per-entry metadata on the wire
	// (seq, lba, hash, frameLen): all a by-ref entry costs in place of
	// its frame.
	BatchEntryOverhead = 28
	// MaxBatchFrames bounds the entries in one push.
	MaxBatchFrames = 4096
)

// BatchEntry is one replication push entry.
type BatchEntry struct {
	Seq   uint64
	LBA   uint64
	Hash  uint64
	Frame []byte
}

// ByRef reports whether the entry ships by reference (no frame;
// materialize from the content hash).
func (e *BatchEntry) ByRef() bool { return len(e.Frame) == 0 }

// StripeHeader is the geometry of a k-of-n replica group member: K
// data units reconstruct a block, N units exist, and this replica
// stores unit Idx. The zero value means no group (mirroring).
type StripeHeader struct {
	K, N, Idx uint8
}

// valid reports structural sanity: 1 <= k <= n and idx < n.
func (h StripeHeader) valid() bool {
	return h.K >= 1 && h.K <= h.N && h.Idx < h.N
}

// check accepts the zero geometry (a mirror push) or a valid group.
func (h StripeHeader) check() error {
	if h != (StripeHeader{}) && !h.valid() {
		return fmt.Errorf("%w: group k=%d n=%d idx=%d", ErrBadFrame, h.K, h.N, h.Idx)
	}
	return nil
}

// PushHeader names the stream and shape of one push: the replication
// mode, the (vol, shard) stream whose seq space the entries belong to,
// and the group geometry (zero for a mirror push).
type PushHeader struct {
	Mode  uint8
	Shard uint8
	Vol   uint16
	Group StripeHeader
}

// pushDataLen validates a push against the protocol bounds and returns
// its data-segment length.
func pushDataLen(hdr PushHeader, entries []BatchEntry) (int, error) {
	if err := hdr.Group.check(); err != nil {
		return 0, err
	}
	if len(entries) == 0 {
		return 0, fmt.Errorf("%w: empty push", ErrBadFrame)
	}
	if len(entries) > MaxBatchFrames {
		return 0, fmt.Errorf("%w: push of %d entries", ErrTooLarge, len(entries))
	}
	for k := range entries {
		if entries[k].ByRef() && entries[k].Hash == 0 {
			return 0, fmt.Errorf("%w: by-ref entry %d without content hash", ErrBadFrame, k)
		}
	}
	n := BatchWireLen(entries)
	if n > MaxDataSegment {
		return 0, fmt.Errorf("%w: push of %d bytes", ErrTooLarge, n)
	}
	return n, nil
}

// BatchWireLen returns the data-segment bytes a push of entries
// occupies on the wire (PDU header excluded); used for modelled wire
// accounting.
func BatchWireLen(entries []BatchEntry) int {
	n := pushCountLen
	for _, e := range entries {
		n += BatchEntryOverhead + len(e.Frame)
	}
	return n
}

// WritePush encodes and sends one OpReplicaPush tagged itt without
// assembling a contiguous copy of the payload: the header, the entry
// metadata, and the caller's frames go out as one vectored write, and
// the digest streams over the pieces in wire order.
func WritePush(w io.Writer, itt uint32, hdr PushHeader, entries []BatchEntry) (int64, error) {
	dataLen, err := pushDataLen(hdr, entries)
	if err != nil {
		return 0, err
	}
	// meta is the count plus every fixed-size entry header in one buffer;
	// frames interleave from the caller's own buffers.
	meta := make([]byte, pushCountLen+BatchEntryOverhead*len(entries))
	binary.BigEndian.PutUint32(meta, uint32(len(entries)))
	for k, e := range entries {
		off := pushCountLen + k*BatchEntryOverhead
		binary.BigEndian.PutUint64(meta[off:], e.Seq)
		binary.BigEndian.PutUint64(meta[off+8:], e.LBA)
		binary.BigEndian.PutUint64(meta[off+16:], e.Hash)
		binary.BigEndian.PutUint32(meta[off+24:], uint32(len(e.Frame)))
	}

	p := PDU{Op: OpReplicaPush, Mode: hdr.Mode, Shard: hdr.Shard, Vol: hdr.Vol, ITT: itt}
	p.Ext[0], p.Ext[1], p.Ext[2] = hdr.Group.K, hdr.Group.N, hdr.Group.Idx
	h := p.header()
	binary.BigEndian.PutUint32(h[24:], uint32(dataLen))

	crc := crc32.Checksum(h[:], castagnoli) // digest field still zero
	bufs := make(net.Buffers, 0, 1+2*len(entries))
	bufs = append(bufs, h[:])
	for k, e := range entries {
		start := pushCountLen + k*BatchEntryOverhead
		if k == 0 {
			start = 0 // the count rides with the first entry header
		}
		piece := meta[start : pushCountLen+(k+1)*BatchEntryOverhead]
		crc = crc32.Update(crc, castagnoli, piece)
		bufs = append(bufs, piece)
		if len(e.Frame) > 0 {
			crc = crc32.Update(crc, castagnoli, e.Frame)
			bufs = append(bufs, e.Frame)
		}
	}
	binary.BigEndian.PutUint32(h[44:], crc)
	return writeBuffers(w, bufs)
}

// DecodePush parses an OpReplicaPush PDU into its header and entries.
// Frames alias p.Data (no copies); the caller owns it until the
// entries are consumed. Decoding is strict and bounded: the geometry
// must be zero or structurally valid and the reserved header bytes
// zero; the declared count must be in (0, MaxBatchFrames] and
// plausible for the segment size before anything is allocated; every
// entry must be fully present, every by-ref entry must name a nonzero
// hash, and trailing bytes are rejected. Truncation reports
// ErrShortFrame and structural violations report ErrBadFrame — hostile
// input never panics or over-allocates.
func DecodePush(p *PDU) (PushHeader, []BatchEntry, error) {
	hdr := PushHeader{Mode: p.Mode, Shard: p.Shard, Vol: p.Vol,
		Group: StripeHeader{K: p.Ext[0], N: p.Ext[1], Idx: p.Ext[2]}}
	for _, b := range p.Ext[3:] {
		if b != 0 {
			return hdr, nil, fmt.Errorf("%w: nonzero reserved header byte", ErrBadFrame)
		}
	}
	if err := hdr.Group.check(); err != nil {
		return hdr, nil, err
	}
	entries, err := decodeEntries(p.Data)
	return hdr, entries, err
}

// decodeEntries parses a push's data segment (see DecodePush).
func decodeEntries(data []byte) ([]BatchEntry, error) {
	if len(data) < pushCountLen {
		return nil, fmt.Errorf("%w: push segment of %d bytes", ErrShortFrame, len(data))
	}
	count := binary.BigEndian.Uint32(data)
	if count == 0 || count > MaxBatchFrames {
		return nil, fmt.Errorf("%w: push count %d", ErrBadFrame, count)
	}
	if uint64(len(data)-pushCountLen) < uint64(count)*BatchEntryOverhead {
		return nil, fmt.Errorf("%w: %d entries cannot fit in %d bytes", ErrShortFrame, count, len(data))
	}
	entries := make([]BatchEntry, 0, count)
	off := pushCountLen
	for k := uint32(0); k < count; k++ {
		if len(data)-off < BatchEntryOverhead {
			return nil, fmt.Errorf("%w: push entry %d header", ErrShortFrame, k)
		}
		e := BatchEntry{
			Seq:  binary.BigEndian.Uint64(data[off:]),
			LBA:  binary.BigEndian.Uint64(data[off+8:]),
			Hash: binary.BigEndian.Uint64(data[off+16:]),
		}
		frameLen := binary.BigEndian.Uint32(data[off+24:])
		off += BatchEntryOverhead
		if frameLen == 0 && e.Hash == 0 {
			return nil, fmt.Errorf("%w: by-ref entry %d without content hash", ErrBadFrame, k)
		}
		if uint64(frameLen) > uint64(len(data)-off) {
			return nil, fmt.Errorf("%w: push entry %d frame of %d bytes", ErrShortFrame, k, frameLen)
		}
		e.Frame = data[off : off+int(frameLen)]
		off += int(frameLen)
		entries = append(entries, e)
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes after push", ErrBadFrame, len(data)-off)
	}
	return entries, nil
}

// EncodeBatchStatuses packs a push response's per-entry status vector:
// one status byte per entry, in entry order.
func EncodeBatchStatuses(statuses []Status) []byte {
	out := make([]byte, len(statuses))
	for i, s := range statuses {
		out[i] = byte(s)
	}
	return out
}

// DecodeBatchStatuses unpacks a push response's status vector and
// checks it covers exactly want entries.
func DecodeBatchStatuses(data []byte, want int) ([]Status, error) {
	if len(data) != want {
		return nil, fmt.Errorf("%w: push response carries %d statuses, want %d", ErrShortFrame, len(data), want)
	}
	out := make([]Status, want)
	for i, b := range data {
		out[i] = Status(b)
	}
	return out, nil
}

// Refuse returns a status vector refusing all n entries of a push with
// st: what a backend that cannot apply the push at all answers.
func Refuse(n int, st Status) []Status {
	out := make([]Status, n)
	for i := range out {
		out[i] = st
	}
	return out
}

// ReplicaStatusErr converts a per-entry push status into an error
// wrapping ErrStatus and, for the typed apply failures, the matching
// sentinel (ErrDiverged, ErrReplicaDecode, ErrReplicaStore,
// ErrRefMiss), so callers switch on the failure class with errors.Is.
// Only meaningful for non-OK statuses.
func ReplicaStatusErr(lba uint64, st Status) error {
	return statusErr("replica-push", lba, st)
}

// Push delivers one push in one round trip and returns one status per
// entry, in entry order. A transport or protocol failure returns an
// error and no statuses; per-entry apply failures (diverged, decode,
// store, ref-miss) ride the vector — convert them with
// ReplicaStatusErr. Like every request, a push is retried once over a
// fresh session when reconnection is armed: the replica's per-stream
// seq-dedupe makes redelivery safe.
func (i *Initiator) Push(hdr PushHeader, entries []BatchEntry) ([]Status, error) {
	if _, err := pushDataLen(hdr, entries); err != nil {
		return nil, err
	}
	resp, err := i.exchange(func(w io.Writer, itt uint32) (int64, error) {
		return WritePush(w, itt, hdr, entries)
	}, nil)
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("%w: replica-push of %d: %v", ErrStatus, len(entries), resp.Status)
	}
	return DecodeBatchStatuses(resp.Data, len(entries))
}
