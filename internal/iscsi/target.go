package iscsi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"prins/internal/block"
)

// Backend is what a target exports: a block device plus, optionally,
// a replication sink. The PRINS engine implements Backend on the
// primary (intercepting writes) and on replicas (applying pushes); a
// plain StoreBackend serves an unreplicated device.
type Backend interface {
	// Geometry returns the device shape advertised at login.
	Geometry() (blockSize int, numBlocks uint64)
	// HandleRead appends the contents of blocks [lba, lba+blocks) to
	// dst and returns the extended slice, reusing dst's capacity when it
	// is large enough (block.AppendBlocks).
	HandleRead(lba uint64, blocks uint32, dst []byte) ([]byte, Status)
	// HandleWrite applies a whole-block write at lba.
	HandleWrite(lba uint64, data []byte) Status
	// HandleReplica applies a replication push: an xcode frame for the
	// block at lba, produced by a peer engine in the given mode with
	// the given sequence number. hash, when non-zero, is the content
	// hash the decoded new block must verify against before the
	// in-place write (StatusDiverged on mismatch).
	HandleReplica(mode uint8, seq, lba, hash uint64, frame []byte) Status
}

// StreamBackend is the optional stream-aware extension of Backend: a
// replica that keeps one sequence space per (vol, shard) replication
// stream. A v5 stream-tagged push routed at a backend that does not
// implement StreamBackend is refused with StatusBadRequest — folding
// tagged streams into a single sequence space would make the replica's
// seq-dedupe silently drop frames from other shards.
type StreamBackend interface {
	Backend
	// HandleReplicaStream applies a replication push against the
	// (vol, shard) stream's sequence space. A zero tag is the default
	// stream and behaves exactly like HandleReplica.
	HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status
}

// StoreBackend adapts a block.Store into a Backend with no replication
// support.
type StoreBackend struct {
	Store block.Store
}

var _ Backend = (*StoreBackend)(nil)

// Geometry implements Backend.
func (b *StoreBackend) Geometry() (int, uint64) {
	return b.Store.BlockSize(), b.Store.NumBlocks()
}

// HandleRead implements Backend.
func (b *StoreBackend) HandleRead(lba uint64, blocks uint32, dst []byte) ([]byte, Status) {
	out, err := block.AppendBlocks(dst, b.Store, lba, blocks)
	if err != nil {
		return nil, storeStatus(err)
	}
	return out, StatusOK
}

// HandleWrite implements Backend.
func (b *StoreBackend) HandleWrite(lba uint64, data []byte) Status {
	bs := b.Store.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return StatusBadRequest
	}
	for i := 0; i*bs < len(data); i++ {
		if err := b.Store.WriteBlock(lba+uint64(i), data[i*bs:(i+1)*bs]); err != nil {
			return storeStatus(err)
		}
	}
	return StatusOK
}

// HandleReplica implements Backend; a plain store is not a replica.
func (b *StoreBackend) HandleReplica(uint8, uint64, uint64, uint64, []byte) Status {
	return StatusBadRequest
}

func storeStatus(err error) Status {
	if errors.Is(err, block.ErrOutOfRange) {
		return StatusOutOfRange
	}
	if errors.Is(err, block.ErrBadBufSize) {
		return StatusBadRequest
	}
	return StatusError
}

// Target is an iSCSI-style server exporting named backends. Zero or
// more listeners may feed it; each accepted connection runs a session
// loop until logout or error.
type Target struct {
	mu       sync.Mutex
	backends map[string]Backend
	closed   bool
	ln       []net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// Logf, when set, receives session-level error logs. Defaults to
	// silent; cmd/prinsd wires it to the process logger.
	Logf func(format string, args ...any)
}

// NewTarget returns an empty target.
func NewTarget() *Target {
	return &Target{
		backends: make(map[string]Backend),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Export registers backend under name. Re-exporting a name replaces
// the previous backend for new sessions.
func (t *Target) Export(name string, backend Backend) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.backends[name] = backend
}

// lookup fetches an exported backend.
func (t *Target) lookup(name string) (Backend, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.backends[name]
	return b, ok
}

// Serve accepts connections from ln until the listener is closed or
// the target shut down. It always returns a non-nil error (like
// http.Server.Serve); after Close it returns net.ErrClosed.
func (t *Target) Serve(ln net.Listener) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return net.ErrClosed
	}
	t.ln = append(t.ln, ln)
	t.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.ServeConn(conn)
		}()
	}
}

// Listen starts serving on a fresh TCP listener bound to addr and
// returns the bound address. Serving proceeds on a background
// goroutine owned by the target.
func (t *Target) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("iscsi: listen %s: %w", addr, err)
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := t.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			t.logf("iscsi target: serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Close stops all listeners, severs every active session, and waits
// for session goroutines to exit.
func (t *Target) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	lns := t.ln
	t.ln = nil
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return nil
}

// track registers a live session connection; it reports false when the
// target is already closed (the caller must drop the conn).
func (t *Target) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// untrack removes a finished session connection.
func (t *Target) untrack(conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, conn)
}

func (t *Target) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// applyReplica dispatches one replication push: stream-tagged pushes
// require a StreamBackend (refused otherwise — see StreamBackend),
// untagged pushes prefer the stream handler's default stream but fall
// back to the v3 handler for un-upgraded backends.
func applyReplica(backend Backend, mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status {
	if sb, ok := backend.(StreamBackend); ok {
		return sb.HandleReplicaStream(mode, shard, vol, seq, lba, hash, frame)
	}
	if shard != 0 || vol != 0 {
		return StatusBadRequest
	}
	return backend.HandleReplica(mode, seq, lba, hash, frame)
}

// applyBatch dispatches a decoded batch to the backend: natively when
// it implements the (stream) batch interface, otherwise entry by entry
// through the single-frame handlers, so an un-upgraded backend behind
// an upgraded target still serves batched sessions. Stream-tagged
// batches require stream support end to end.
func applyBatch(backend Backend, mode, shard uint8, vol uint16, entries []BatchEntry) []Status {
	if sbb, ok := backend.(StreamBatchBackend); ok {
		return sbb.HandleReplicaBatchStream(mode, shard, vol, entries)
	}
	if shard == 0 && vol == 0 {
		if bb, ok := backend.(BatchBackend); ok {
			return bb.HandleReplicaBatch(mode, entries)
		}
	}
	statuses := make([]Status, len(entries))
	for i, e := range entries {
		statuses[i] = applyReplica(backend, mode, shard, vol, e.Seq, e.LBA, e.Hash, e.Frame)
	}
	return statuses
}

// ServeConn runs one session on conn until logout, EOF, a protocol
// error, or target shutdown. It owns conn and closes it on return.
func (t *Target) ServeConn(conn net.Conn) {
	defer conn.Close()
	if !t.track(conn) {
		return
	}
	defer t.untrack(conn)
	var backend Backend
	// scratch holds the block data of one OpReadCmd or OpHashCmd and is
	// reused by the next: each response is written before the next PDU
	// is read, so nothing still references it. It keeps the size of the
	// largest such request the session has served.
	var scratch []byte

	for {
		pdu, err := ReadPDU(conn)
		if err != nil {
			if !errors.Is(err, io.EOF) {
				t.logf("iscsi target: session %v: %v", conn.RemoteAddr(), err)
			}
			return
		}

		var resp PDU
		resp.ITT = pdu.ITT

		switch pdu.Op {
		case OpLoginReq:
			resp.Op = OpLoginResp
			name, err := decodeLoginReq(pdu.Data)
			if err != nil {
				resp.Status = StatusBadRequest
				break
			}
			b, ok := t.lookup(name)
			if !ok {
				resp.Status = StatusBadTarget
				break
			}
			backend = b
			bs, nb := backend.Geometry()
			resp.Status = StatusOK
			resp.Data = encodeLoginResp(bs, nb)

		case OpNop:
			resp.Op = OpNopResp
			resp.Status = StatusOK

		case OpLogout:
			resp.Op = OpLogoutResp
			resp.Status = StatusOK
			if _, err := resp.WriteTo(conn); err != nil {
				t.logf("iscsi target: logout resp: %v", err)
			}
			return

		case OpReadCmd:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			if pdu.Blocks == 0 {
				resp.Status = StatusBadRequest
				break
			}
			data, st := backend.HandleRead(pdu.LBA, pdu.Blocks, scratch[:0])
			resp.Status = st
			if st == StatusOK {
				scratch = data
				resp.Data = data
			}

		case OpWriteCmd:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			resp.Status = backend.HandleWrite(pdu.LBA, pdu.Data)

		case OpReplicaWrite:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			resp.Status = applyReplica(backend, pdu.Mode, pdu.Shard, pdu.Vol, pdu.Seq, pdu.LBA, pdu.Hash, pdu.Data)

		case OpReplicaWriteBatch:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			entries, err := DecodeBatch(pdu.Data)
			if err != nil {
				resp.Status = StatusBadRequest
				break
			}
			resp.Status = StatusOK
			resp.Data = EncodeBatchStatuses(applyBatch(backend, pdu.Mode, pdu.Shard, pdu.Vol, entries))

		case OpReplicaWriteStripe:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			shdr, entries, err := DecodeStripe(pdu.Data)
			if err != nil {
				resp.Status = StatusBadRequest
				break
			}
			sb, ok := backend.(StripeBackend)
			if !ok {
				// A stripe unit pushed at a whole-block replica would be
				// stored as if it were a block: refuse rather than corrupt.
				resp.Status = StatusBadRequest
				break
			}
			resp.Status = StatusOK
			resp.Data = EncodeBatchStatuses(sb.HandleReplicaStripe(pdu.Mode, pdu.Shard, pdu.Vol, shdr, entries))

		case OpReplicaWriteByRef:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			entries, err := DecodeByRef(pdu.Data)
			if err != nil {
				resp.Status = StatusBadRequest
				break
			}
			brb, ok := backend.(ByRefBackend)
			if !ok {
				// A by-ref push at a replica without a content index can
				// not be materialized: refuse the PDU rather than guess.
				resp.Status = StatusBadRequest
				break
			}
			resp.Status = StatusOK
			resp.Data = EncodeBatchStatuses(brb.HandleReplicaByRef(pdu.Mode, pdu.Shard, pdu.Vol, entries))

		case OpRepairChain:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			cb, ok := backend.(ChainBackend)
			if !ok {
				resp.Status = StatusBadRequest
				break
			}
			data, st := cb.HandleRepairChain(pdu.Data)
			resp.Status = st
			if st == StatusOK {
				resp.Data = data
			}

		case OpHashCmd:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			if pdu.Blocks == 0 || pdu.Blocks > maxHashBatch {
				resp.Status = StatusBadRequest
				break
			}
			data, st := backend.HandleRead(pdu.LBA, pdu.Blocks, scratch[:0])
			resp.Status = st
			if st == StatusOK {
				scratch = data
				bs, _ := backend.Geometry()
				resp.Data = HashBlocks(data, bs)
			}

		default:
			resp.Op = OpResp
			resp.Status = StatusBadRequest
		}

		if _, err := resp.WriteTo(conn); err != nil {
			t.logf("iscsi target: write response: %v", err)
			return
		}
	}
}
