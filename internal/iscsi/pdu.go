// Package iscsi implements the block transport the PRINS prototype was
// built on: an iSCSI-flavoured request/response protocol over TCP. An
// initiator issues SCSI-like block commands (READ, WRITE) against a
// target that serves a block device; the same PDU stream also carries
// the PRINS replication pushes (REPLICA PUSH) between the engines of
// the primary and replica nodes, mirroring how the paper embeds the
// PRINS-engine inside the iSCSI target with a second initiator for
// inter-node traffic.
//
// The wire protocol is a simplification of RFC 3720: fixed 48-byte
// basic header segment followed by an optional data segment, one
// outstanding task per connection phase handled synchronously. It is
// not interoperable with real iSCSI but preserves its shape — login
// with target-name validation, tagged tasks, status codes, and block
// addressing by LBA.
package iscsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Opcode identifies the PDU type.
type Opcode uint8

// PDU opcodes. Request opcodes flow initiator->target; response
// opcodes flow back.
const (
	OpLoginReq Opcode = iota + 1
	OpLoginResp
	OpReadCmd
	OpWriteCmd
	// OpReplicaPush is the one replication push: a count-prefixed list
	// of {seq, lba, hash, frameLen, frame} entries for one (vol, shard)
	// stream, with the stripe geometry of a k-of-n replica group in the
	// header (zero for a mirror push). An entry with frameLen 0 ships by
	// reference. The response carries one status byte per entry. See
	// WritePush and DecodePush.
	OpReplicaPush
	OpResp // generic command response
	OpNop  // keepalive / RTT probe
	OpNopResp
	OpLogout
	OpLogoutResp
	OpHashCmd // per-block content hashes for delta resync
	// OpRepairChain carries one hop of a pipelined repair chain: an
	// opaque request the repair coordinator or the previous survivor
	// built (see internal/repair), containing the accumulating partial
	// sums plus the remaining hop list. The response payload reports
	// downstream wire/ingest accounting.
	OpRepairChain
)

// String returns the opcode mnemonic.
func (o Opcode) String() string {
	switch o {
	case OpLoginReq:
		return "LOGIN"
	case OpLoginResp:
		return "LOGIN-RESP"
	case OpReadCmd:
		return "READ"
	case OpWriteCmd:
		return "WRITE"
	case OpReplicaPush:
		return "REPLICA-PUSH"
	case OpResp:
		return "RESP"
	case OpNop:
		return "NOP"
	case OpNopResp:
		return "NOP-RESP"
	case OpLogout:
		return "LOGOUT"
	case OpLogoutResp:
		return "LOGOUT-RESP"
	case OpHashCmd:
		return "HASH"
	case OpRepairChain:
		return "REPAIR-CHAIN"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// Status is the completion status carried in response PDUs.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusError
	StatusBadRequest
	StatusOutOfRange
	StatusBadTarget
	StatusNotLoggedIn
	// StatusDiverged reports a verified replica apply whose recovered
	// block did not match the content hash the primary shipped: the
	// replica's A_old precondition no longer holds. The replica refuses
	// the write (nothing was stored), so the block needs a resync, not a
	// retry.
	StatusDiverged
	// StatusDecodeError reports a replica push whose frame failed to
	// decode (bad codec byte, truncated payload, wrong decoded size).
	StatusDecodeError
	// StatusStoreError reports a replica push that decoded fine but
	// whose local device read/write failed (including torn writes).
	StatusStoreError
	// StatusRefMiss reports a by-ref replica push whose content hash the
	// replica's dedupe index could not resolve to a block it verifiably
	// holds. Nothing was stored; the initiator falls back to shipping
	// the retained parity frame by value, so correctness never depends
	// on the two indexes agreeing.
	StatusRefMiss
)

// String returns the status mnemonic.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusError:
		return "ERROR"
	case StatusBadRequest:
		return "BAD-REQUEST"
	case StatusOutOfRange:
		return "OUT-OF-RANGE"
	case StatusBadTarget:
		return "BAD-TARGET"
	case StatusNotLoggedIn:
		return "NOT-LOGGED-IN"
	case StatusDiverged:
		return "DIVERGED"
	case StatusDecodeError:
		return "DECODE-ERROR"
	case StatusStoreError:
		return "STORE-ERROR"
	case StatusRefMiss:
		return "REF-MISS"
	default:
		return fmt.Sprintf("STATUS(%d)", uint8(s))
	}
}

// sentinel returns the typed error a replica-apply status maps to, or
// nil for statuses without one. ReplicaStatusErr wraps it so callers
// can switch on the failure class with errors.Is.
func (s Status) sentinel() error {
	switch s {
	case StatusDiverged:
		return ErrDiverged
	case StatusDecodeError:
		return ErrReplicaDecode
	case StatusStoreError:
		return ErrReplicaStore
	case StatusRefMiss:
		return ErrRefMiss
	default:
		return nil
	}
}

// Wire-format constants.
const (
	// headerLen is the fixed basic header segment size.
	headerLen = 48
	// protoMagic guards against desynchronized or foreign streams.
	protoMagic = 0x69 // 'i'
	// protoVersion is bumped on incompatible changes. Every PDU carries
	// it, and a peer with any other version is refused: both ends of a
	// session are built from the same source.
	protoVersion = 8
	// extLen is the opcode-specific header tail (PDU.Ext).
	extLen = 16
	// MaxDataSegment bounds a PDU's data segment; larger is rejected
	// before allocation.
	MaxDataSegment = 17 << 20
)

// Protocol error values.
var (
	ErrBadMagic   = errors.New("iscsi: bad protocol magic")
	ErrBadVersion = errors.New("iscsi: protocol version mismatch")
	ErrBadDigest  = errors.New("iscsi: digest mismatch")
	ErrTooLarge   = errors.New("iscsi: data segment too large")
	ErrStatus     = errors.New("iscsi: request failed")
	// ErrShortFrame reports a response whose data segment does not match
	// the length implied by the request — a truncated or misaligned
	// payload from a buggy or hostile peer.
	ErrShortFrame = errors.New("iscsi: truncated response payload")
	// ErrBadFrame reports a structurally invalid push (zero or oversized
	// entry count, trailing bytes after the last entry, a by-ref entry
	// without a hash, bad group geometry, nonzero reserved bytes).
	ErrBadFrame = errors.New("iscsi: malformed push")
)

// Typed replica-apply failures. The replica engine wraps its apply
// errors with these so the target can map them to distinct statuses,
// and ReplicaStatusErr wraps the status back into the same
// sentinel — errors.Is sees the identical failure class on both sides
// of the wire (and through in-process loopback clients).
var (
	// ErrDiverged: the backward parity computation produced a block
	// whose hash does not match what the primary shipped. The replica's
	// copy of A_old is wrong (torn write, lost frame, bit rot); the
	// block was NOT written and must be repaired by resync.
	ErrDiverged = errors.New("iscsi: replica content diverged")
	// ErrReplicaDecode: the pushed frame failed to decode.
	ErrReplicaDecode = errors.New("iscsi: replica frame decode failed")
	// ErrReplicaStore: the replica's local device failed the apply.
	ErrReplicaStore = errors.New("iscsi: replica store failed")
	// ErrRefMiss: a by-ref push named a content hash the replica could
	// not resolve. Nothing was stored; re-ship the entry by value.
	ErrRefMiss = errors.New("iscsi: replica dedupe reference miss")
)

// PDU is one protocol data unit: the decoded header fields plus the
// data segment.
//
// Header layout (big endian):
//
//	off 0    : magic
//	off 1    : version
//	off 2    : opcode
//	off 3    : status
//	off 4    : mode (replication mode of an OpReplicaPush)
//	off 5    : shard (uint8)  replication stream shard index
//	off 6-7  : vol (uint16)   replication stream volume id
//	off 8    : ITT  (uint32)  initiator task tag
//	off 12   : LBA  (uint64)
//	off 20   : blocks (uint32) block count for READ
//	off 24   : data length (uint32)
//	off 28-43: ext, opcode-specific (see PushHeader); zero otherwise
//	off 44   : digest (uint32) CRC-32C over header (digest zeroed) + data
//
// The digest plays the role of iSCSI's header+data digests: corrupted
// or torn PDUs are rejected with ErrBadDigest instead of being applied
// to a replica.
type PDU struct {
	Op     Opcode
	Status Status
	Mode   uint8
	Shard  uint8  // replication stream shard index
	Vol    uint16 // replication stream volume id; zero for a standalone engine
	ITT    uint32
	LBA    uint64
	Blocks uint32
	Ext    [extLen]byte
	Data   []byte
}

// header encodes the PDU's basic header segment with the digest field
// zeroed.
func (p *PDU) header() [headerLen]byte {
	var hdr [headerLen]byte
	hdr[0] = protoMagic
	hdr[1] = protoVersion
	hdr[2] = byte(p.Op)
	hdr[3] = byte(p.Status)
	hdr[4] = p.Mode
	hdr[5] = p.Shard
	binary.BigEndian.PutUint16(hdr[6:], p.Vol)
	binary.BigEndian.PutUint32(hdr[8:], p.ITT)
	binary.BigEndian.PutUint64(hdr[12:], p.LBA)
	binary.BigEndian.PutUint32(hdr[20:], p.Blocks)
	binary.BigEndian.PutUint32(hdr[24:], uint32(len(p.Data)))
	copy(hdr[28:44], p.Ext[:])
	return hdr
}

// WriteTo encodes and writes the PDU to w as one header + data stream.
func (p *PDU) WriteTo(w io.Writer) (int64, error) {
	if len(p.Data) > MaxDataSegment {
		return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(p.Data))
	}
	hdr := p.header()
	binary.BigEndian.PutUint32(hdr[44:], digest(hdr[:], p.Data))
	bufs := net.Buffers{hdr[:]}
	if len(p.Data) > 0 {
		bufs = append(bufs, p.Data)
	}
	n, err := writeBuffers(w, bufs)
	if err != nil {
		return n, fmt.Errorf("iscsi: write pdu: %w", err)
	}
	return n, nil
}

// writeBuffers sends bufs as one vectored write. A shaped link
// (wan.ShapedConn) charges its one-way latency once per call, so
// splitting a PDU into several Writes would multiply the modelled
// latency of every data-carrying PDU; plain conns fall back to
// net.Buffers.WriteTo, which uses writev on TCP.
func writeBuffers(w io.Writer, bufs net.Buffers) (int64, error) {
	if bw, ok := w.(buffersWriter); ok {
		return bw.WriteBuffers(bufs)
	}
	return bufs.WriteTo(w)
}

// buffersWriter is implemented by connections that can deliver a
// vectored PDU as one shaped send.
type buffersWriter interface {
	WriteBuffers(bufs net.Buffers) (int64, error)
}

// ReadPDU reads and decodes one PDU from r. It returns io.EOF on a
// clean end of stream before any header byte, and wraps other short
// reads as io.ErrUnexpectedEOF.
func ReadPDU(r io.Reader) (*PDU, error) { return ReadPDUInto(r, nil) }

// ReadPDUInto is ReadPDU with a caller-supplied destination for the
// data segment: when the incoming segment's length equals len(dst)
// exactly, it is read directly into dst and the returned PDU's Data
// aliases dst — no staging allocation and no copy. Any other segment
// length (including zero) falls back to allocating, so error responses
// and mismatched geometries still decode.
func ReadPDUInto(r io.Reader, dst []byte) (*PDU, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("iscsi: read header: %w", err)
	}
	if hdr[0] != protoMagic {
		return nil, fmt.Errorf("%w: 0x%02x", ErrBadMagic, hdr[0])
	}
	if hdr[1] != protoVersion {
		return nil, fmt.Errorf("%w: %d", ErrBadVersion, hdr[1])
	}
	dataLen := binary.BigEndian.Uint32(hdr[24:])
	if dataLen > MaxDataSegment {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, dataLen)
	}
	p := &PDU{
		Op:     Opcode(hdr[2]),
		Status: Status(hdr[3]),
		Mode:   hdr[4],
		Shard:  hdr[5],
		Vol:    binary.BigEndian.Uint16(hdr[6:]),
		ITT:    binary.BigEndian.Uint32(hdr[8:]),
		LBA:    binary.BigEndian.Uint64(hdr[12:]),
		Blocks: binary.BigEndian.Uint32(hdr[20:]),
	}
	copy(p.Ext[:], hdr[28:44])
	if dataLen > 0 {
		if int(dataLen) == len(dst) {
			p.Data = dst
		} else {
			p.Data = make([]byte, dataLen)
		}
		if _, err := io.ReadFull(r, p.Data); err != nil {
			return nil, fmt.Errorf("iscsi: read data segment: %w", err)
		}
	}
	want := binary.BigEndian.Uint32(hdr[44:])
	if got := digest(hdr[:], p.Data); got != want {
		return nil, fmt.Errorf("%w: got %08x, want %08x", ErrBadDigest, got, want)
	}
	return p, nil
}

// digest computes the PDU's CRC-32C over the header (with the digest
// field zeroed) and the data segment. The scratch header copy stays on
// the stack and the CRC streams via Checksum/Update — no hash.Hash
// allocation on the per-PDU path.
func digest(hdr, data []byte) uint32 {
	var scratch [headerLen]byte
	copy(scratch[:], hdr)
	scratch[44], scratch[45], scratch[46], scratch[47] = 0, 0, 0, 0
	crc := crc32.Checksum(scratch[:], castagnoli)
	return crc32.Update(crc, castagnoli, data)
}

// castagnoli is the CRC-32C table iSCSI digests use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WireSize returns the bytes this PDU occupies on the wire.
func (p *PDU) WireSize() int { return headerLen + len(p.Data) }

// loginPayload carries the negotiated session parameters.
//
// Login request data: uvarint name length + target name bytes.
// Login response data: blockSize uint32 + numBlocks uint64.
const loginRespLen = 12

func encodeLoginReq(targetName string) []byte {
	buf := make([]byte, 0, len(targetName)+5)
	var tmp [5]byte
	n := binary.PutUvarint(tmp[:], uint64(len(targetName)))
	buf = append(buf, tmp[:n]...)
	return append(buf, targetName...)
}

func decodeLoginReq(data []byte) (string, error) {
	nameLen, n := binary.Uvarint(data)
	if n <= 0 || nameLen > 4096 || uint64(len(data)-n) < nameLen {
		return "", fmt.Errorf("iscsi: malformed login request")
	}
	return string(data[n : n+int(nameLen)]), nil
}

func encodeLoginResp(blockSize int, numBlocks uint64) []byte {
	buf := make([]byte, loginRespLen)
	binary.BigEndian.PutUint32(buf, uint32(blockSize))
	binary.BigEndian.PutUint64(buf[4:], numBlocks)
	return buf
}

func decodeLoginResp(data []byte) (blockSize int, numBlocks uint64, err error) {
	if len(data) != loginRespLen {
		return 0, 0, fmt.Errorf("iscsi: malformed login response (%d bytes)", len(data))
	}
	return int(binary.BigEndian.Uint32(data)), binary.BigEndian.Uint64(data[4:]), nil
}
