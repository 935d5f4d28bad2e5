package iscsi

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzReadPDU feeds arbitrary byte streams to the PDU decoder: no
// panic, and nothing larger than MaxDataSegment may be accepted.
func FuzzReadPDU(f *testing.F) {
	var buf bytes.Buffer
	p := PDU{Op: OpWriteCmd, LBA: 7, Data: []byte("seed")}
	if _, err := p.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{protoMagic}, headerLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		pdu, err := ReadPDU(bytes.NewReader(data))
		if err == nil && len(pdu.Data) > MaxDataSegment {
			t.Fatalf("accepted %d-byte data segment", len(pdu.Data))
		}
	})
}

// checkPush decodes p and holds the push decoder to its contract: it
// must never panic or over-allocate, failures must be the two
// documented sentinels, and anything accepted must be internally
// consistent and re-encode through the vectored writer to the identical
// header bytes and segment (decode is strict, so the mapping is
// bijective).
func checkPush(t *testing.T, p *PDU) {
	t.Helper()
	hdr, entries, err := DecodePush(p)
	if err != nil {
		if !errors.Is(err, ErrBadFrame) && !errors.Is(err, ErrShortFrame) {
			t.Fatalf("unexpected error class: %v", err)
		}
		return
	}
	if hdr.Group != (StripeHeader{}) && !hdr.Group.valid() {
		t.Fatalf("accepted invalid group %+v", hdr.Group)
	}
	if len(entries) == 0 || len(entries) > MaxBatchFrames {
		t.Fatalf("accepted %d entries", len(entries))
	}
	total := 0
	for _, e := range entries {
		if e.ByRef() && e.Hash == 0 {
			t.Fatal("accepted a by-ref entry without a content hash")
		}
		total += len(e.Frame)
	}
	if total > len(p.Data) {
		t.Fatalf("frames total %d bytes from a %d-byte segment", total, len(p.Data))
	}
	var buf bytes.Buffer
	if _, err := WritePush(&buf, 0, hdr, entries); err != nil {
		t.Fatalf("re-encode of accepted push: %v", err)
	}
	again, err := ReadPDU(&buf)
	if err != nil {
		t.Fatalf("re-encoded push unreadable: %v", err)
	}
	if again.Ext != p.Ext || !bytes.Equal(again.Data, p.Data) {
		t.Fatal("decode/encode round trip changed the push")
	}
}

// FuzzDecodeBatch feeds arbitrary data segments of a mirror push whose
// entries all carry their frames by value.
func FuzzDecodeBatch(f *testing.F) {
	seed := pushSegment([]BatchEntry{
		{Seq: 1, LBA: 2, Hash: 3, Frame: []byte("frame one")},
		{Seq: 2, LBA: 9, Hash: 4, Frame: []byte("frame two")},
	})
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                         // truncated frame
	f.Add(append([]byte(nil), seed[:7]...))           // truncated entry header
	f.Add([]byte{})                                   // no count
	f.Add(countOf(0))                                 // zero count
	f.Add(countOf(0xFFFFFFFF))                        // absurd count, tiny buffer
	f.Add(append(append([]byte(nil), seed...), 0xAB)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPush(t, &PDU{Op: OpReplicaPush, Data: data})
	})
}

// FuzzDecodeByRef feeds arbitrary data segments of a mirror push that
// mixes by-value frames with by-ref entries (frameLen 0, content hash
// only).
func FuzzDecodeByRef(f *testing.F) {
	seed := pushSegment(mixedEntries())
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                                      // truncated frame
	f.Add(append([]byte(nil), seed[:7]...))                        // truncated entry header
	f.Add([]byte{})                                                // no count
	f.Add(countOf(0))                                              // zero count
	f.Add(countOf(0xFFFFFFFF))                                     // absurd count, tiny buffer
	f.Add(append(append([]byte(nil), seed...), 0xAB))              // trailing byte
	f.Add(append(countOf(1), make([]byte, BatchEntryOverhead)...)) // by-ref entry with zero hash
	f.Fuzz(func(t *testing.T, data []byte) {
		checkPush(t, &PDU{Op: OpReplicaPush, Data: data})
	})
}

// FuzzDecodeStripe feeds arbitrary stripe pushes: the input is the 16
// opcode-specific header bytes (the group geometry and its reserved
// tail) followed by the data segment.
func FuzzDecodeStripe(f *testing.F) {
	ext := func(k, n, idx byte) []byte { return append([]byte{k, n, idx}, make([]byte, extLen-3)...) }
	group := ext(2, 4, 3)
	seg := pushSegment(testEntries())
	add := func(head, data []byte) { f.Add(append(append([]byte(nil), head...), data...)) }
	add(group, seg)
	add(group, seg[:len(seg)-3])                          // truncated frame
	add(group, seg[:1])                                   // truncated count
	f.Add(group[:5])                                      // short header bytes
	add(append(ext(2, 4, 3)[:extLen-1], 1), seg)          // nonzero reserved byte
	add(ext(0, 4, 1), seg)                                // k = 0
	add(ext(5, 4, 1), seg)                                // k > n
	add(ext(2, 4, 4), seg)                                // idx >= n
	add(ext(2, 4, 0), countOf(0))                         // zero entry count
	add(group, append(append([]byte(nil), seg...), 0xAB)) // trailing byte
	add(ext(2, 4, 1), countOf(0xFFFFFFFF))                // absurd count, tiny buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < extLen {
			return
		}
		p := &PDU{Op: OpReplicaPush, Data: data[extLen:]}
		copy(p.Ext[:], data)
		checkPush(t, p)
	})
}

// FuzzLoginPayloads exercises the login codec pair.
func FuzzLoginPayloads(f *testing.F) {
	f.Add([]byte("vol0"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, nameBytes []byte) {
		name := string(nameBytes)
		if len(name) > 4096 {
			return
		}
		got, err := decodeLoginReq(encodeLoginReq(name))
		if err != nil {
			t.Fatalf("decode own encoding: %v", err)
		}
		if got != name {
			t.Fatalf("login name round trip: %q != %q", got, name)
		}
	})
}
