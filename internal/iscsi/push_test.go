package iscsi

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/wan"
)

// testEntries builds a small push with varied frame sizes, including a
// frameless by-ref entry.
func testEntries() []BatchEntry {
	return []BatchEntry{
		{Seq: 1, LBA: 10, Hash: 0xAAAA, Frame: []byte{1, 2, 3, 4}},
		{Seq: 2, LBA: 11, Hash: 0xBBBB, Frame: nil},
		{Seq: 3, LBA: 10, Hash: 0xCCCC, Frame: bytes.Repeat([]byte{7}, 300)},
	}
}

// mixedEntries interleaves by-value frames and pure references, the
// shape one push carries when only some queued frames hit the
// primary's dedupe index.
func mixedEntries() []BatchEntry {
	return []BatchEntry{
		{Seq: 1, LBA: 10, Hash: 0xAAAA, Frame: []byte{1, 2, 3, 4}},
		{Seq: 2, LBA: 11, Hash: 0xBBBB, Frame: nil}, // by-ref
		{Seq: 3, LBA: 12, Hash: 0xCCCC, Frame: bytes.Repeat([]byte{7}, 300)},
		{Seq: 4, LBA: 13, Hash: 0xDDDD, Frame: nil}, // by-ref
	}
}

// encodePush runs entries through the vectored writer and reads the
// result back as a PDU.
func encodePush(t testing.TB, hdr PushHeader, entries []BatchEntry) *PDU {
	t.Helper()
	var buf bytes.Buffer
	n, err := WritePush(&buf, 1, hdr, entries)
	if err != nil {
		t.Fatal(err)
	}
	if int(n) != buf.Len() {
		t.Fatalf("WritePush reported %d bytes, wrote %d", n, buf.Len())
	}
	p, err := ReadPDU(&buf)
	if err != nil {
		t.Fatalf("pushed PDU unreadable: %v", err)
	}
	return p
}

// pushSegment hand-encodes the documented data-segment layout.
func pushSegment(entries []BatchEntry) []byte {
	seg := binary.BigEndian.AppendUint32(nil, uint32(len(entries)))
	for _, e := range entries {
		seg = binary.BigEndian.AppendUint64(seg, e.Seq)
		seg = binary.BigEndian.AppendUint64(seg, e.LBA)
		seg = binary.BigEndian.AppendUint64(seg, e.Hash)
		seg = binary.BigEndian.AppendUint32(seg, uint32(len(e.Frame)))
		seg = append(seg, e.Frame...)
	}
	return seg
}

func sameEntries(t *testing.T, got, want []BatchEntry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d entries, want %d", len(got), len(want))
	}
	for i, e := range want {
		g := got[i]
		if g.Seq != e.Seq || g.LBA != e.LBA || g.Hash != e.Hash || !bytes.Equal(g.Frame, e.Frame) {
			t.Errorf("entry %d: got %+v, want %+v", i, g, e)
		}
		if g.ByRef() != (len(e.Frame) == 0) {
			t.Errorf("entry %d: ByRef() = %v", i, g.ByRef())
		}
	}
}

func TestBatchSegmentRoundTrip(t *testing.T) {
	entries := testEntries()
	p := encodePush(t, PushHeader{Mode: 3}, entries)
	if len(p.Data) != BatchWireLen(entries) {
		t.Errorf("encoded %d bytes, BatchWireLen says %d", len(p.Data), BatchWireLen(entries))
	}
	hdr, got, err := DecodePush(p)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != (PushHeader{Mode: 3}) {
		t.Errorf("header = %+v, want a mode-3 mirror push", hdr)
	}
	sameEntries(t, got, entries)
}

func TestEncodeBatchBounds(t *testing.T) {
	var buf bytes.Buffer
	if _, err := WritePush(&buf, 1, PushHeader{}, nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty push: err = %v, want ErrBadFrame", err)
	}
	tooMany := make([]BatchEntry, MaxBatchFrames+1)
	for i := range tooMany {
		tooMany[i].Frame = []byte{1}
	}
	if _, err := WritePush(&buf, 1, PushHeader{}, tooMany); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized push: err = %v, want ErrTooLarge", err)
	}
	// Payload over MaxDataSegment is rejected even with a legal count.
	big := []BatchEntry{{Frame: make([]byte, MaxDataSegment)}}
	if _, err := WritePush(&buf, 1, PushHeader{}, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized payload: err = %v, want ErrTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Errorf("refused pushes wrote %d bytes", buf.Len())
	}
}

// decodeSegment runs DecodePush over a mirror push carrying data.
func decodeSegment(data []byte) ([]BatchEntry, error) {
	_, entries, err := DecodePush(&PDU{Op: OpReplicaPush, Data: data})
	return entries, err
}

func countOf(n uint32) []byte {
	return binary.BigEndian.AppendUint32(nil, n)
}

func TestDecodeBatchErrors(t *testing.T) {
	valid := pushSegment(testEntries())
	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"nil", nil, ErrShortFrame},
		{"short count", []byte{0, 0, 1}, ErrShortFrame},
		{"zero count", countOf(0), ErrBadFrame},
		{"count over cap", countOf(MaxBatchFrames + 1), ErrBadFrame},
		{"huge count", countOf(0xFFFFFFFF), ErrBadFrame},
		{"count without entries", countOf(2), ErrShortFrame},
		{"truncated entry header", append(countOf(1), make([]byte, BatchEntryOverhead-1)...), ErrShortFrame},
		{"truncated frame", valid[:len(valid)-1], ErrShortFrame},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrBadFrame},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := decodeSegment(tt.data); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestBatchStatusVector(t *testing.T) {
	in := []Status{StatusOK, StatusDiverged, StatusOK, StatusStoreError}
	out, err := DecodeBatchStatuses(EncodeBatchStatuses(in), len(in))
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("status %d: got %v, want %v", i, out[i], in[i])
		}
	}
	if _, err := DecodeBatchStatuses(EncodeBatchStatuses(in), 5); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short vector: err = %v, want ErrShortFrame", err)
	}
}

func TestReplicaStatusErr(t *testing.T) {
	err := ReplicaStatusErr(42, StatusDiverged)
	if !errors.Is(err, ErrStatus) || !errors.Is(err, ErrDiverged) {
		t.Errorf("diverged entry error %v must wrap ErrStatus and ErrDiverged", err)
	}
	if err := ReplicaStatusErr(1, StatusStoreError); !errors.Is(err, ErrReplicaStore) {
		t.Errorf("store entry error %v must wrap ErrReplicaStore", err)
	}
}

// pushSink is a replica Backend that records every push it is handed,
// with optional per-LBA status overrides.
type pushSink struct {
	mu      sync.Mutex
	hdrs    []PushHeader
	pushes  [][]BatchEntry
	status  map[uint64]Status // per-LBA status override; default OK
	refusal Status            // nonzero: refuse every entry with it
}

func (s *pushSink) Geometry() (int, uint64) { return 512, 1024 }
func (s *pushSink) HandleRead(uint64, uint32, []byte) ([]byte, Status) {
	return nil, StatusBadRequest
}
func (s *pushSink) HandleWrite(uint64, []byte) Status { return StatusBadRequest }

func (s *pushSink) HandlePush(hdr PushHeader, entries []BatchEntry) []Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	copied := make([]BatchEntry, len(entries))
	for i, e := range entries {
		copied[i] = e
		copied[i].Frame = append([]byte(nil), e.Frame...)
	}
	s.hdrs = append(s.hdrs, hdr)
	s.pushes = append(s.pushes, copied)
	if s.refusal != StatusOK {
		return Refuse(len(entries), s.refusal)
	}
	statuses := make([]Status, len(entries))
	for i, e := range entries {
		if st, ok := s.status[e.LBA]; ok {
			statuses[i] = st
		}
	}
	return statuses
}

func (s *pushSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pushes)
}

// recordingConn tees everything written through it into a buffer so
// tests can compare wire bytes.
type recordingConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordingConn) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]byte(nil), c.buf.Bytes()...)
	c.buf.Reset()
	return out
}

// startRecordedPair wires an initiator to a backend over net.Pipe with
// a wire recorder in between, logs in, and clears the recorder.
func startRecordedPair(t *testing.T, backend Backend) (*Initiator, *recordingConn) {
	t.Helper()
	target := NewTarget()
	target.Export("r", backend)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()
	rec := &recordingConn{Conn: client}
	init := NewInitiator(rec)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}
	rec.take()
	return init, rec
}

// TestBatchBackendDispatch: the backend receives the whole push in one
// HandlePush call, with its header, and the per-entry statuses come
// back in entry order.
func TestBatchBackendDispatch(t *testing.T) {
	sink := &pushSink{status: map[uint64]Status{11: StatusDiverged}}
	init, _ := startRecordedPair(t, sink)

	entries := testEntries()
	statuses, err := init.Push(PushHeader{Mode: 3}, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusDiverged, StatusOK}
	for i := range want {
		if statuses[i] != want[i] {
			t.Errorf("status %d = %v, want %v", i, statuses[i], want[i])
		}
	}
	if len(sink.pushes) != 1 {
		t.Fatalf("backend saw %d pushes, want 1", len(sink.pushes))
	}
	if sink.hdrs[0] != (PushHeader{Mode: 3}) {
		t.Errorf("backend saw header %+v", sink.hdrs[0])
	}
	sameEntries(t, sink.pushes[0], entries)
}

// TestBatchMalformedSegmentRejected: a hand-corrupted push segment is
// refused at the target with StatusBadRequest before any backend
// dispatch.
func TestBatchMalformedSegmentRejected(t *testing.T) {
	sink := &pushSink{}
	target := NewTarget()
	target.Export("r", sink)
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		target.ServeConn(server)
	}()
	defer func() {
		client.Close()
		<-done
	}()

	login := &PDU{Op: OpLoginReq, ITT: 1, Data: encodeLoginReq("r")}
	if _, err := login.WriteTo(client); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPDU(client); err != nil {
		t.Fatal(err)
	}

	bad := &PDU{Op: OpReplicaPush, ITT: 2, Data: []byte{0, 0, 0, 0}} // count == 0
	if _, err := bad.WriteTo(client); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadPDU(client)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusBadRequest {
		t.Errorf("status = %v, want BAD-REQUEST", resp.Status)
	}
	if sink.count() != 0 {
		t.Errorf("malformed push reached the backend")
	}
}

// TestBatchChargesLatencyOnce is the mechanism behind the batching
// speedup: over a shaped WAN conn, one push of many entries pays the
// one-way latency once, where the same entries pushed one at a time
// pay it once per push (header and data go out as one vectored send).
func TestBatchChargesLatencyOnce(t *testing.T) {
	sink := &pushSink{}
	target := NewTarget()
	target.Export("r", sink)
	client, server := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		target.ServeConn(server)
	}()

	shaped := wan.Shape(client, wan.LinkConfig{Latency: 20 * time.Millisecond})
	var mu sync.Mutex
	sleeps := 0
	shaped.SetSleep(func(time.Duration) {
		mu.Lock()
		sleeps++
		mu.Unlock()
	})
	init := NewInitiator(shaped)
	t.Cleanup(func() {
		init.Close()
		wg.Wait()
	})
	if err := init.Login("r"); err != nil {
		t.Fatal(err)
	}

	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return sleeps
	}

	const frames = 16
	entries := make([]BatchEntry, frames)
	for i := range entries {
		entries[i] = BatchEntry{Seq: uint64(i + 1), LBA: uint64(i), Frame: []byte{byte(i)}}
	}

	before := count()
	if _, err := init.Push(PushHeader{Mode: 1}, entries); err != nil {
		t.Fatal(err)
	}
	if got := count() - before; got != 1 {
		t.Errorf("batched push slept %d times, want 1", got)
	}

	before = count()
	for k := range entries {
		if _, err := init.Push(PushHeader{Mode: 1}, entries[k:k+1]); err != nil {
			t.Fatal(err)
		}
	}
	if got := count() - before; got != frames {
		t.Errorf("%d single pushes slept %d times, want %d", frames, got, frames)
	}
}

func TestByRefSegmentRoundTrip(t *testing.T) {
	entries := mixedEntries()
	p := encodePush(t, PushHeader{Mode: 2, Shard: 1, Vol: 5}, entries)
	if len(p.Data) != BatchWireLen(entries) {
		t.Errorf("encoded %d bytes, BatchWireLen says %d", len(p.Data), BatchWireLen(entries))
	}
	_, got, err := DecodePush(p)
	if err != nil {
		t.Fatal(err)
	}
	sameEntries(t, got, entries)
}

func TestEncodeByRefRejectsHashlessRef(t *testing.T) {
	var buf bytes.Buffer
	// A by-ref entry with no content hash is unmaterializable.
	if _, err := WritePush(&buf, 1, PushHeader{}, []BatchEntry{{Seq: 1, LBA: 2, Hash: 0, Frame: nil}}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("hashless by-ref entry: err = %v, want ErrBadFrame", err)
	}
	// A by-value entry with hash 0 (unverified push) stays legal.
	if _, err := WritePush(&buf, 1, PushHeader{}, []BatchEntry{{Seq: 1, LBA: 2, Hash: 0, Frame: []byte{9}}}); err != nil {
		t.Errorf("hashless by-value entry: err = %v", err)
	}
}

func TestDecodeByRefErrors(t *testing.T) {
	valid := pushSegment(mixedEntries())
	// One entry whose frameLen is zero and whose hash is zero.
	hashless := append(countOf(1), make([]byte, BatchEntryOverhead)...)
	binary.BigEndian.PutUint64(hashless[pushCountLen:], 5) // seq

	tests := []struct {
		name string
		data []byte
		want error
	}{
		{"nil", nil, ErrShortFrame},
		{"short count", []byte{0, 0, 1}, ErrShortFrame},
		{"zero count", countOf(0), ErrBadFrame},
		{"count over cap", countOf(MaxBatchFrames + 1), ErrBadFrame},
		{"huge count", countOf(0xFFFFFFFF), ErrBadFrame},
		{"count without entries", countOf(2), ErrShortFrame},
		{"truncated entry header", append(countOf(1), make([]byte, BatchEntryOverhead-1)...), ErrShortFrame},
		{"truncated frame", valid[:len(valid)-1], ErrShortFrame},
		{"trailing bytes", append(append([]byte(nil), valid...), 0xEE), ErrBadFrame},
		{"hashless by-ref entry", hashless, ErrBadFrame},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := decodeSegment(tt.data); !errors.Is(err, tt.want) {
				t.Errorf("err = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestRefMissStatusErr(t *testing.T) {
	err := ReplicaStatusErr(3, StatusRefMiss)
	if !errors.Is(err, ErrStatus) || !errors.Is(err, ErrRefMiss) {
		t.Errorf("ref-miss entry error %v must wrap ErrStatus and ErrRefMiss", err)
	}
	if StatusRefMiss.String() != "REF-MISS" {
		t.Errorf("StatusRefMiss.String() = %q", StatusRefMiss.String())
	}
}

// TestByRefDispatch: a mixed push reaches the backend in one HandlePush
// call with the stream tag intact, and the per-entry status vector
// comes back in entry order.
func TestByRefDispatch(t *testing.T) {
	sink := &pushSink{status: map[uint64]Status{11: StatusRefMiss}}
	init, _ := startRecordedPair(t, sink)

	entries := mixedEntries()
	statuses, err := init.Push(PushHeader{Mode: 2, Shard: 3, Vol: 7}, entries)
	if err != nil {
		t.Fatal(err)
	}
	want := []Status{StatusOK, StatusRefMiss, StatusOK, StatusOK}
	for i := range want {
		if statuses[i] != want[i] {
			t.Errorf("status %d = %v, want %v", i, statuses[i], want[i])
		}
	}
	if len(sink.pushes) != 1 {
		t.Fatalf("backend saw %d pushes, want 1", len(sink.pushes))
	}
	if h := sink.hdrs[0]; h.Shard != 3 || h.Vol != 7 || h.Mode != 2 {
		t.Errorf("push header = %+v, want mode 2 shard 3 vol 7", h)
	}
	sameEntries(t, sink.pushes[0], entries)
}

// TestPushWireLayout: the vectored send path emits exactly the
// documented PDU — protocol version, opcode, stream tag and geometry
// in the header, and a data segment byte-identical to the hand-encoded
// entry list — and the whole request passes the generic PDU reader,
// digest included.
func TestPushWireLayout(t *testing.T) {
	sink := &pushSink{}
	init, rec := startRecordedPair(t, sink)

	entries := mixedEntries()
	group := StripeHeader{K: 2, N: 4, Idx: 3}
	if _, err := init.Push(PushHeader{Mode: 2, Shard: 1, Vol: 5, Group: group}, entries); err != nil {
		t.Fatal(err)
	}
	wire := rec.take()
	if len(wire) < headerLen {
		t.Fatalf("captured %d wire bytes", len(wire))
	}
	if wire[0] != protoMagic || wire[1] != protoVersion || wire[2] != byte(OpReplicaPush) {
		t.Errorf("header = magic %#x version %d op %d, want magic %#x version %d op %d",
			wire[0], wire[1], wire[2], protoMagic, protoVersion, byte(OpReplicaPush))
	}
	if wire[4] != 2 || wire[5] != 1 || binary.BigEndian.Uint16(wire[6:]) != 5 {
		t.Errorf("stream tag bytes = % x, want mode 2 shard 1 vol 5", wire[4:8])
	}
	wantExt := [extLen]byte{2, 4, 3}
	if !bytes.Equal(wire[28:44], wantExt[:]) {
		t.Errorf("geometry bytes = % x, want % x", wire[28:44], wantExt)
	}
	seg := pushSegment(entries)
	if dl := binary.BigEndian.Uint32(wire[24:]); int(dl) != len(seg) {
		t.Errorf("declared data length %d, hand encoding is %d bytes", dl, len(seg))
	}
	if !bytes.Equal(wire[headerLen:headerLen+len(seg)], seg) {
		t.Error("vectored push segment differs from the documented layout")
	}
	pdu, err := ReadPDU(bytes.NewReader(wire))
	if err != nil {
		t.Fatalf("vectored push PDU unreadable: %v", err)
	}
	hdr, _, err := DecodePush(pdu)
	if err != nil {
		t.Fatal(err)
	}
	if hdr != (PushHeader{Mode: 2, Shard: 1, Vol: 5, Group: group}) {
		t.Errorf("reparsed header = %+v", hdr)
	}
}

// TestByRefMalformedSegmentRejected: a hashless by-ref entry is refused
// by the initiator's own encoder and, fed raw, by the decoder the
// target runs; nothing reaches the backend.
func TestByRefMalformedSegmentRejected(t *testing.T) {
	sink := &pushSink{}
	init, _ := startRecordedPair(t, sink)

	bad := append(countOf(1), make([]byte, BatchEntryOverhead)...)
	_, err := init.Push(PushHeader{}, []BatchEntry{{Seq: 1, LBA: 2, Hash: 0, Frame: nil}})
	if !errors.Is(err, ErrBadFrame) {
		t.Errorf("initiator accepted a hashless by-ref entry: %v", err)
	}
	if got, derr := decodeSegment(bad); derr == nil {
		t.Errorf("decoder accepted hashless by-ref segment: %+v", got)
	}
	if sink.count() != 0 {
		t.Errorf("malformed by-ref push reached the backend")
	}
}

func TestStripeEncodeDecodeRoundTrip(t *testing.T) {
	hdr := PushHeader{Mode: 3, Group: StripeHeader{K: 2, N: 4, Idx: 1}}
	entries := []BatchEntry{
		{Seq: 5, LBA: 9, Hash: 0xfeed, Frame: []byte("alpha")},
		{Seq: 6, LBA: 10, Hash: 0, Frame: []byte("b")},
	}
	gotHdr, gotEntries, err := DecodePush(encodePush(t, hdr, entries))
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header %+v != %+v", gotHdr, hdr)
	}
	sameEntries(t, gotEntries, entries)
}

func TestStripeDecodeStrict(t *testing.T) {
	hdr := PushHeader{Group: StripeHeader{K: 2, N: 3, Idx: 2}}
	valid := encodePush(t, hdr, []BatchEntry{{Seq: 1, LBA: 2, Frame: []byte("xy")}})
	withExt := func(i int, b byte) *PDU {
		p := *valid
		p.Ext[i] = b
		return &p
	}
	cases := []struct {
		name string
		pdu  *PDU
	}{
		{"reserved set", withExt(3, 1)},
		{"last reserved set", withExt(extLen-1, 1)},
		{"k zero", withExt(0, 0)},
		{"k above n", withExt(0, 9)},
		{"idx out of group", withExt(2, 3)},
	}
	for _, tc := range cases {
		if _, _, err := DecodePush(tc.pdu); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("%s: err %v, want ErrBadFrame", tc.name, err)
		}
	}
	var buf bytes.Buffer
	if _, err := WritePush(&buf, 1, PushHeader{Group: StripeHeader{K: 3, N: 2}}, []BatchEntry{{Frame: []byte{1}}}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("encode accepted k > n: %v", err)
	}
}

func TestStripeWireRoundTrip(t *testing.T) {
	sink := &pushSink{}
	init, _ := startRecordedPair(t, sink)

	hdr := PushHeader{Mode: 3, Shard: 1, Vol: 7, Group: StripeHeader{K: 2, N: 4, Idx: 3}}
	entries := []BatchEntry{
		{Seq: 1, LBA: 3, Hash: 0xabc, Frame: []byte("unit-frame-a")},
		{Seq: 2, LBA: 4, Hash: 0xdef, Frame: []byte("b")},
	}
	statuses, err := init.Push(hdr, entries)
	if err != nil {
		t.Fatalf("stripe push: %v", err)
	}
	for i, st := range statuses {
		if st != StatusOK {
			t.Fatalf("entry %d status %v", i, st)
		}
	}
	if sink.hdrs[0] != hdr {
		t.Fatalf("backend saw header %+v, want %+v", sink.hdrs[0], hdr)
	}
	sameEntries(t, sink.pushes[0], entries)

	// Per-entry refusals ride the status vector, not the error.
	sink.refusal = StatusDiverged
	statuses, err = init.Push(hdr, entries[:1])
	if err != nil {
		t.Fatalf("stripe push: %v", err)
	}
	if statuses[0] != StatusDiverged {
		t.Fatalf("status %v, want DIVERGED", statuses[0])
	}
}

// A stripe pushed at a backend that is not a replica must be refused,
// not misapplied.
func TestStripeRefusedByPlainBackend(t *testing.T) {
	store, err := block.NewMem(512, 16)
	if err != nil {
		t.Fatal(err)
	}
	init, _ := startRecordedPair(t, &StoreBackend{Store: store})
	statuses, err := init.Push(PushHeader{Mode: 3, Group: StripeHeader{K: 1, N: 2, Idx: 0}},
		[]BatchEntry{{Seq: 1, LBA: 0, Frame: []byte("x")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0] != StatusBadRequest {
		t.Fatalf("plain backend answered %v, want [BAD-REQUEST]", statuses)
	}
}
