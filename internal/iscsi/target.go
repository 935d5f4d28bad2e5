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
	// HandlePush applies one replication push (see PushHeader) and
	// returns exactly one status per entry, in entry order. A backend
	// that is not a replica of the push's shape refuses every entry
	// (see Refuse).
	HandlePush(hdr PushHeader, entries []BatchEntry) []Status
}

// ChainBackend is the pipelined-repair extension of Backend: one hop
// of a repair chain hands the opaque request to the node's repair
// logic (see internal/repair) and returns the response payload.
type ChainBackend interface {
	Backend
	HandleRepairChain(req []byte) ([]byte, Status)
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

// HandlePush implements Backend; a plain store is not a replica.
func (b *StoreBackend) HandlePush(_ PushHeader, entries []BatchEntry) []Status {
	return Refuse(len(entries), StatusBadRequest)
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

		case OpReplicaPush:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			hdr, entries, err := DecodePush(pdu)
			if err != nil {
				resp.Status = StatusBadRequest
				break
			}
			resp.Status = StatusOK
			resp.Data = EncodeBatchStatuses(backend.HandlePush(hdr, entries))

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
