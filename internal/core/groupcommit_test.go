package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/faults"
	"prins/internal/iscsi"
	"prins/internal/journal"
)

// groupPair builds a sync PRINS engine with group commit armed and one
// loopback replica.
func groupPair(t *testing.T, cfg Config, bs int, nb uint64) (*Engine, block.Store, block.Store) {
	t.Helper()
	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replicaStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.AttachReplica(&Loopback{Replica: NewReplicaEngine(replicaStore)}); err != nil {
		t.Fatal(err)
	}
	return e, primaryStore, replicaStore
}

// TestGroupCommitShardWriters: concurrent same-shard writers drain
// through the group-commit window as combined units — every write
// succeeds, the replica converges, and the group counters account for
// every write exactly once.
func TestGroupCommitShardWriters(t *testing.T) {
	const (
		bs      = 512
		nb      = 256
		writers = 8
		perW    = 8
	)
	e, primaryStore, replicaStore := groupPair(t, Config{
		Mode:        ModePRINS,
		FlushWindow: 2 * time.Millisecond,
	}, bs, nb)

	var wg sync.WaitGroup
	errs := make(chan error, writers*perW)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			buf := make([]byte, bs)
			for k := 0; k < perW; k++ {
				rng.Read(buf)
				if err := e.WriteBlock(uint64(w*perW+k), buf); err != nil {
					errs <- fmt.Errorf("writer %d write %d: %w", w, k, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}

	mustEqual(t, "replica after grouped writes", replicaStore, primaryStore)

	s := e.Traffic().Snapshot()
	if s.Writes != writers*perW {
		t.Errorf("Writes = %d, want %d", s.Writes, writers*perW)
	}
	if s.GroupedWrites != writers*perW {
		t.Errorf("GroupedWrites = %d, want %d (every write must pass through group commit)", s.GroupedWrites, writers*perW)
	}
	if s.GroupCommits < 1 {
		t.Error("GroupCommits = 0, want at least one flush")
	}
	if s.GroupCommits > s.GroupedWrites {
		t.Errorf("GroupCommits = %d > GroupedWrites = %d", s.GroupCommits, s.GroupedWrites)
	}
	if s.Replicated != writers*perW {
		t.Errorf("Replicated = %d, want %d", s.Replicated, writers*perW)
	}
}

// TestGroupCommitLatencyBound: a write under group commit waits out at
// most one flush window plus the commit itself. The leader sleeps the
// window by design, so each sequential write takes at least
// FlushWindow — and must stay well under a generous multiple of it
// even on a loaded CI machine.
func TestGroupCommitLatencyBound(t *testing.T) {
	const (
		bs     = 512
		nb     = 64
		window = 10 * time.Millisecond
		writes = 10
	)
	e, _, _ := groupPair(t, Config{
		Mode:        ModePRINS,
		FlushWindow: window,
	}, bs, nb)

	bound := 20 * window // generous CI slack; a missed window would blow far past this
	buf := make([]byte, bs)
	for k := 0; k < writes; k++ {
		buf[0] = byte(k + 1)
		//lint:ignore nondeterminism the contract under test is the real flush-window latency bound; only the wall clock can measure it
		start := time.Now()
		if err := e.WriteBlock(uint64(k), buf); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed < window {
			t.Fatalf("write %d returned in %v, before the %v flush window elapsed", k, elapsed, window)
		}
		if elapsed > bound {
			t.Fatalf("write %d took %v, exceeding the %v latency bound", k, elapsed, bound)
		}
	}
}

// TestGroupCommitCloseDuringWindow: closing the engine while writers
// sit in an open flush window neither hangs nor strands them — every
// queued writer returns promptly, either with its write committed or
// with ErrEngineClosed.
func TestGroupCommitCloseDuringWindow(t *testing.T) {
	const bs, nb = 512, 16
	primaryStore, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(primaryStore, Config{
		Mode:        ModePRINS,
		FlushWindow: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	res := make(chan error, 4)
	for k := 0; k < 4; k++ {
		go func(k int) {
			buf := make([]byte, bs)
			buf[0] = byte(k + 1)
			res <- e.WriteBlock(uint64(k), buf)
		}(k)
	}
	//lint:ignore nondeterminism racing Close against a real in-flight flush window needs the real clock; any interleaving must pass
	time.Sleep(5 * time.Millisecond) // let the writers queue inside the window
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		select {
		case err := <-res:
			if err != nil && !errors.Is(err, ErrEngineClosed) {
				t.Errorf("grouped write failed with %v, want nil or ErrEngineClosed", err)
			}
		//lint:ignore nondeterminism hang backstop only: fires solely when the code under test deadlocks
		case <-time.After(10 * time.Second):
			t.Fatal("grouped write did not return after Close")
		}
	}
}

// groupApplySetup stages a three-entry PRINS batch against a journaled
// replica whose Nth store write tears — the mid-batch power loss.
func groupApplySetup(t *testing.T, tearAt int64) (inner block.Store, faulted *faults.Store, backing *journal.Mem, rep *ReplicaEngine, entries []iscsi.BatchEntry, news [][]byte) {
	t.Helper()
	const (
		bs = 512
		nb = 16
	)
	inner, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	lbas := []uint64{2, 5, 9}
	olds := make([][]byte, len(lbas))
	news = make([][]byte, len(lbas))
	entries = make([]iscsi.BatchEntry, len(lbas))
	for i, lba := range lbas {
		olds[i] = make([]byte, bs)
		rng.Read(olds[i])
		if err := inner.WriteBlock(lba, olds[i]); err != nil {
			t.Fatal(err)
		}
		news[i] = make([]byte, bs)
		rng.Read(news[i])
		frame, hash := prinsFrame(t, olds[i], news[i])
		entries[i] = iscsi.BatchEntry{Seq: uint64(i + 1), LBA: lba, Hash: hash, Frame: frame}
	}

	faulted = faults.NewPlan(7).WrapStore(inner, faults.StoreFaults{TornWriteAt: tearAt})
	backing = &journal.Mem{}
	rep, err = NewReplicaEngineJournaled(faulted, journal.New(backing))
	if err != nil {
		t.Fatal(err)
	}
	return inner, faulted, backing, rep, entries, news
}

// TestChaosGroupApplyTornMidBatch is the group apply's
// all-commit-or-all-replay contract: a batch whose store write tears
// mid-group leaves the WHOLE group journaled, and recovery — same
// engine or a restart — replays every entry, never a torn suffix. The
// primary's redelivery of the batch then dedupes entirely.
func TestChaosGroupApplyTornMidBatch(t *testing.T) {
	check := func(t *testing.T, inner block.Store, news [][]byte) {
		t.Helper()
		cur := make([]byte, len(news[0]))
		for i, lba := range []uint64{2, 5, 9} {
			if err := inner.ReadBlock(lba, cur); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cur, news[i]) {
				t.Errorf("lba %d does not hold A_new after recovery", lba)
			}
		}
	}

	t.Run("redeliver", func(t *testing.T) {
		inner, _, _, rep, entries, news := groupApplySetup(t, 2)
		statuses := rep.ApplyPush(iscsi.PushHeader{Mode: uint8(ModePRINS)}, entries)
		if statuses[0] != iscsi.StatusOK {
			t.Errorf("entry 0 (written before the tear) = %v, want OK", statuses[0])
		}
		if statuses[1] != iscsi.StatusStoreError || statuses[2] != iscsi.StatusStoreError {
			t.Errorf("entries 1,2 = %v,%v, want StoreError (torn write and stopped suffix)", statuses[1], statuses[2])
		}

		// The primary redelivers the batch it saw partially refused: the
		// journal replays the whole group first, then every entry dedupes.
		statuses = rep.ApplyPush(iscsi.PushHeader{Mode: uint8(ModePRINS)}, entries)
		for k, st := range statuses {
			if st != iscsi.StatusOK {
				t.Errorf("redelivered entry %d = %v, want OK", k, st)
			}
		}
		check(t, inner, news)
		if got := rep.LastSeq(); got != 3 {
			t.Errorf("LastSeq = %d, want 3", got)
		}
		if got := rep.Traffic().Snapshot().Duplicates; got != 3 {
			t.Errorf("duplicates = %d, want 3 (the whole redelivered batch)", got)
		}
	})

	t.Run("restart", func(t *testing.T) {
		inner, faulted, backing, rep, entries, news := groupApplySetup(t, 2)
		rep.ApplyPush(iscsi.PushHeader{Mode: uint8(ModePRINS)}, entries)
		_ = rep // crash: only the store and journal backing survive

		rep2, err := NewReplicaEngineJournaled(faulted, journal.New(backing))
		if err != nil {
			t.Fatalf("restart with pending group intent: %v", err)
		}
		check(t, inner, news)
		if got := rep2.LastSeq(); got != 3 {
			t.Errorf("LastSeq after startup replay = %d, want 3", got)
		}
	})

	t.Run("first-write-torn", func(t *testing.T) {
		inner, _, _, rep, entries, news := groupApplySetup(t, 1)
		statuses := rep.ApplyPush(iscsi.PushHeader{Mode: uint8(ModePRINS)}, entries)
		for k, st := range statuses {
			if st != iscsi.StatusStoreError {
				t.Errorf("entry %d = %v, want StoreError (nothing committed)", k, st)
			}
		}
		statuses = rep.ApplyPush(iscsi.PushHeader{Mode: uint8(ModePRINS)}, entries)
		for k, st := range statuses {
			if st != iscsi.StatusOK {
				t.Errorf("redelivered entry %d = %v, want OK", k, st)
			}
		}
		check(t, inner, news)
	})
}

// TestGroupApplyMatchesPerEntry pins the group path's semantic parity:
// a mixed batch — an in-batch duplicate, a same-LBA chain whose second
// entry XORs against its batch-mate's staged block, and a diverged
// entry — produces exactly the statuses the per-entry walk would.
func TestGroupApplyMatchesPerEntry(t *testing.T) {
	const bs, nb = 512, 16
	inner, err := block.NewMem(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	old := make([]byte, bs)
	mid := make([]byte, bs)
	fin := make([]byte, bs)
	oth := make([]byte, bs)
	rng.Read(old)
	rng.Read(mid)
	rng.Read(fin)
	rng.Read(oth)
	if err := inner.WriteBlock(4, old); err != nil {
		t.Fatal(err)
	}
	rep := NewReplicaEngine(inner)

	f1, h1 := prinsFrame(t, old, mid) // lba 4: old -> mid
	f2, h2 := prinsFrame(t, mid, fin) // lba 4: mid -> fin, pre-image staged in-batch
	f3, _ := prinsFrame(t, oth, oth)  // lba 7: wrong pre-image assumption
	entries := []iscsi.BatchEntry{
		{Seq: 1, LBA: 4, Hash: h1, Frame: f1},
		{Seq: 1, LBA: 4, Hash: h1, Frame: f1},                   // duplicate seq: dedupes in-batch
		{Seq: 2, LBA: 4, Hash: h2, Frame: f2},                   // chains off entry 0's staged block
		{Seq: 3, LBA: 7, Hash: iscsi.HashBlock(old), Frame: f3}, // hash cannot match: diverged
	}
	statuses := rep.ApplyPush(iscsi.PushHeader{Mode: uint8(ModePRINS)}, entries)
	want := []iscsi.Status{iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusOK, iscsi.StatusDiverged}
	for k := range want {
		if statuses[k] != want[k] {
			t.Errorf("statuses[%d] = %v, want %v", k, statuses[k], want[k])
		}
	}
	cur := make([]byte, bs)
	if err := inner.ReadBlock(4, cur); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cur, fin) {
		t.Error("lba 4 did not converge to the chained final content")
	}
	if got := rep.LastSeq(); got != 2 {
		t.Errorf("LastSeq = %d, want 2 (the refused seq-3 entry must not advance the cursor)", got)
	}
	if got := rep.Traffic().Snapshot().Duplicates; got != 1 {
		t.Errorf("duplicates = %d, want 1", got)
	}
	if got := rep.Traffic().Snapshot().Diverged; got != 1 {
		t.Errorf("diverged = %d, want 1", got)
	}
}

// TestGroupCommitEarlyFlush: a queue that fills a whole FlushFrames
// chunk commits immediately instead of sleeping out the window — with
// a deliberately huge window, a full complement of writers must still
// complete orders of magnitude sooner, and in one group.
func TestGroupCommitEarlyFlush(t *testing.T) {
	const (
		bs      = 512
		nb      = 64
		writers = 4
		window  = 30 * time.Second
	)
	e, _, _ := groupPair(t, Config{
		Mode:        ModePRINS,
		FlushWindow: window,
		FlushFrames: writers,
	}, bs, nb)

	//lint:ignore nondeterminism the contract under test is early flush beating the real window; only the wall clock can show it
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			buf := make([]byte, bs)
			buf[0] = byte(w + 1)
			errs[w] = e.WriteBlock(uint64(w), buf)
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	//lint:ignore nondeterminism hang backstop only: fires solely when the early flush never happens
	case <-time.After(10 * time.Second):
		t.Fatal("writers still blocked: early flush did not fire before the window")
	}
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if elapsed := time.Since(start); elapsed > window/2 {
		t.Fatalf("full group took %v, early flush should beat the %v window", elapsed, window)
	}
	s := e.Traffic().Snapshot()
	if s.GroupCommits != 1 || s.GroupedWrites != writers {
		t.Fatalf("GroupCommits=%d GroupedWrites=%d, want one group of %d", s.GroupCommits, s.GroupedWrites, writers)
	}
}
