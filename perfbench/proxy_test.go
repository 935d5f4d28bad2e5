package main

import (
	"sync/atomic"
	"testing"
	"time"

	"prins"
	"prins/internal/wan"
)

// TestLinkCountsTurnsAndBytes mounts a replica's export through the
// link and checks that N block reads are exactly N turns with N times
// one read's bytes each way, and that turns take at least the two-way
// delay on average.
func TestLinkCountsTurnsAndBytes(t *testing.T) {
	const (
		n     = 20
		delay = time.Millisecond
	)
	store, err := prins.NewMemStore(blockSize, 64)
	if err != nil {
		t.Fatal(err)
	}
	replica := prins.NewReplica(store)
	addr, err := replica.Serve("127.0.0.1:0", exportName)
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	var led atomic.Pointer[ledger]
	link, err := listenLink(addr.String(), wan.LinkConfig{Latency: delay}, newClock(), &led)
	if err != nil {
		t.Fatal(err)
	}
	session, err := prins.Dial(link.Addr(), exportName)
	if err != nil {
		t.Fatal(err)
	}

	buf := make([]byte, blockSize)
	c0 := link.Counters()
	if err := session.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	one := link.Counters().sub(c0)
	if one.turns != 1 {
		t.Fatalf("one read took %d turns", one.turns)
	}
	if one.revBytes-one.fwdBytes != blockSize {
		t.Fatalf("one read carried %d bytes forward and %d back; want the block's %d more back",
			one.fwdBytes, one.revBytes, blockSize)
	}

	c1 := link.Counters()
	for i := 0; i < n; i++ {
		if err := session.ReadBlock(uint64(i%64), buf); err != nil {
			t.Fatal(err)
		}
	}
	got := link.Counters().sub(c1)
	if got.turns != n || got.fwdBytes != n*one.fwdBytes || got.revBytes != n*one.revBytes {
		t.Fatalf("%d reads: %d turns, %d bytes forward, %d back; want %d, %d, %d",
			n, got.turns, got.fwdBytes, got.revBytes, n, n*one.fwdBytes, n*one.revBytes)
	}
	// Closing ends the last turn, so every turn is recorded; the last
	// n+1 are the reads, after the login's.
	if err := session.Close(); err != nil {
		t.Fatal(err)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	turns := link.TurnsSince(0)
	total := link.Counters()
	if int64(len(turns)) != total.turns || len(turns) < n+1 {
		t.Fatalf("recorded %d turns, counted %d, want at least %d", len(turns), total.turns, n+1)
	}
	// The link pays late timer wakes back, so a single turn may beat the
	// delay, but never the turns together.
	var sum time.Duration
	for _, tr := range turns {
		sum += time.Duration(tr.end - tr.start)
	}
	if floor := 2 * delay * time.Duration(len(turns)); sum < floor || total.shaperWait < floor {
		t.Fatalf("%d turns took %v and the shaper held data %v; want both at least %v",
			len(turns), sum, total.shaperWait, floor)
	}
	for i, tr := range turns[len(turns)-(n+1):] {
		if tr.fwd != one.fwdBytes || tr.rev != one.revBytes {
			t.Fatalf("turn %d carried %d/%d bytes, want %d/%d", i, tr.fwd, tr.rev, one.fwdBytes, one.revBytes)
		}
	}
}
