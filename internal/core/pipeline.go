package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/metrics"
	"prins/internal/parity"
	"prins/internal/wan"
	"prins/internal/xcode"
)

// Per-(shard, replica) ship pipelines.
//
// Every attached replica owns one bounded FIFO queue per shard, each
// drained by its own shipper goroutine, so delivery to one replica
// never waits on another replica's round trips — fan-out latency is
// the slowest replica, not the sum — and one shard's backlog never
// blocks another shard's pipeline to the same replica. The write path
// enqueues onto every pipe of the owning shard while holding that
// shard's lock (frames enter each queue in per-shard sequence order,
// which the replica's per-stream seq-dedupe relies on) but never
// performs network I/O under the lock: synchronous writes wait for
// per-write acks after the lock is released.
//
// Degraded state, retry accounting, and sticky async errors live on
// the replica (shared across its pipes — a dead session is dead for
// every shard); dirty maps live on the pipe, so recovery can resync
// shard ranges independently.

// repMsg is one queued replication job for one replica.
type repMsg struct {
	seq   uint64
	lba   uint64
	hash  uint64 // content hash of the decoded new block; 0 = unverified
	frame *frameBuf
	// ack receives the delivery result in synchronous mode; nil in
	// async mode, where errors stick to the replica until Drain.
	ack chan<- error
	// unit marks a GroupMode stripe unit: the frame is this replica's
	// RS unit of the write, not the whole block, and settlement feeds
	// a quorum count instead of an all-replicas wait — so a dropped or
	// diverged unit must settle as an error (redundancy the group
	// lost), where a mirror-mode drop settles nil. See finishUnit.
	unit bool
}

// replicaState is one attached replica's shared delivery health and
// counters; the per-shard queues hang off its pipes. The degraded flag
// is atomic because shippers race with ClearDegraded and the Degraded
// accessors.
type replicaState struct {
	client ReplicaClient
	// unitIdx is the stripe unit this replica stores in GroupMode
	// (= attach order).
	unitIdx uint8
	// dedupe, when non-nil (Config.DedupeEntries set), is the bounded
	// (lba -> content hash) index of what the engine believes this
	// replica holds — the ship-by-reference fast path's consult source,
	// fed by acknowledged ships and resync, invalidated wherever an LBA
	// goes dirty or the replica degrades.
	dedupe *dedupe.Index

	m     metrics.Replica
	pipes []*pipe // one per shard, shard order

	degraded atomic.Bool

	// pending counts frames enqueued but not yet fully processed,
	// across all of this replica's pipes; Drain and Close wait on it
	// per replica.
	pending sync.WaitGroup

	errMu sync.Mutex
	err   error // first async delivery error, sticky until ClearDegraded
}

// setErr records the first sticky async delivery error.
func (rs *replicaState) setErr(err error) {
	rs.errMu.Lock()
	if rs.err == nil {
		rs.err = err
	}
	rs.errMu.Unlock()
}

// firstErr returns the sticky error, if any.
func (rs *replicaState) firstErr() error {
	rs.errMu.Lock()
	defer rs.errMu.Unlock()
	return rs.err
}

// clearErr forgets the sticky error (part of the recovery lifecycle).
func (rs *replicaState) clearErr() {
	rs.errMu.Lock()
	rs.err = nil
	rs.errMu.Unlock()
}

// degrade takes the replica out of the ship path and resets its dedupe
// index: once frames are being dropped, nothing further about the
// replica's content can be assumed until a resync re-warms it.
func (rs *replicaState) degrade() {
	rs.degraded.Store(true)
	if rs.dedupe != nil {
		rs.dedupe.Reset()
	}
}

// pipe is one (shard, replica) ship pipeline: the shard's frames to
// that replica flow through its queue in seq order, and the blocks the
// replica is missing from that shard accumulate in its dirty map.
type pipe struct {
	rs    *replicaState
	shard *shard
	queue chan repMsg
	dirty *dirtyMap
}

// markDirty records lba as not-known-held by this pipe's replica and
// drops it from the primary's dedupe index: whatever the replica holds
// there is no longer a safe by-ref copy source.
func (p *pipe) markDirty(lba uint64) {
	p.dirty.mark(lba)
	if d := p.rs.dedupe; d != nil {
		d.Forget(lba)
	}
}

// frameBuf is a pooled, reference-counted encode buffer. One frame is
// shared by every replica's queue; the last pipeline to finish with it
// returns it to the pool, killing the per-write frame allocation.
type frameBuf struct {
	buf  []byte
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(frameBuf) }}

// getFrame fetches an empty frame buffer from the pool.
func getFrame() *frameBuf {
	fb, ok := framePool.Get().(*frameBuf)
	if !ok {
		fb = new(frameBuf)
	}
	fb.buf = fb.buf[:0]
	return fb
}

// release drops n references and returns the buffer to the pool when
// none remain.
func (fb *frameBuf) release(n int32) {
	if fb.refs.Add(-n) == 0 {
		framePool.Put(fb)
	}
}

// shipper is one pipe's pipeline worker: it drains the queue in FIFO
// (= per-shard sequence) order until the engine closes, then finishes
// whatever is still queued and exits.
func (e *Engine) shipper(p *pipe) {
	defer e.shippers.Done()
	for {
		select {
		case msg := <-p.queue:
			e.deliver(p, msg)
		case <-e.done:
			for {
				select {
				case msg := <-p.queue:
					e.deliver(p, msg)
				default:
					return
				}
			}
		}
	}
}

// finish settles one queued message exactly once: report the delivery
// result (to the waiting writer in sync mode, to the sticky
// per-replica error in async mode), release its frame reference, and
// retire it from the pending count.
func (e *Engine) finish(rs *replicaState, msg repMsg, err error) {
	if msg.ack != nil {
		msg.ack <- err
	} else if err != nil {
		rs.setErr(err)
	}
	msg.frame.release(1)
	rs.pending.Done()
}

// lostErr is how a message settles when its replica does not hold its
// block after delivery — dropped (replica degraded) or refused as
// diverged. The dirty maps and lag gauges carry that signal, so a
// mirror write still succeeds: the block landed whole on every healthy
// replica. A GroupMode stripe unit is the one difference: a lost unit
// is redundancy the group lost, so a synchronous writer's quorum count
// gets err. In async mode it settles nil like mirroring, so
// AllowDegraded's contract (writes keep succeeding; heal via Drain →
// repair → ClearDegraded) holds for groups too.
func lostErr(m repMsg, err error) error {
	if m.unit && m.ack != nil {
		return err
	}
	return nil
}

// drainBatch opportunistically drains p's queue behind first, up to
// the configured frame/byte caps, without ever blocking: batches form
// only from backlog already sitting in the queue, so an idle pipeline
// keeps single-write latency while a pipeline behind a slow link
// amortizes its round trips over everything that queued up meanwhile.
func (e *Engine) drainBatch(p *pipe, first repMsg) []repMsg {
	msgs := []repMsg{first}
	bytes := len(first.frame.buf)
	for len(msgs) < e.cfg.BatchFrames && bytes < e.cfg.BatchBytes {
		select {
		case msg := <-p.queue:
			msgs = append(msgs, msg)
			bytes += len(msg.frame.buf)
		default:
			return msgs
		}
	}
	return msgs
}

// batchGroup is one wire entry of a drained batch plus the queued
// messages it settles: more than one when same-LBA parities were
// XOR-merged into a single frame.
type batchGroup struct {
	entry iscsi.BatchEntry
	msgs  []repMsg
}

func singleGroup(m repMsg) batchGroup {
	return batchGroup{
		entry: iscsi.BatchEntry{Seq: m.seq, LBA: m.lba, Hash: m.hash, Frame: m.frame.buf},
		msgs:  []repMsg{m},
	}
}

func plainGroups(msgs []repMsg) []batchGroup {
	groups := make([]batchGroup, 0, len(msgs))
	for _, m := range msgs {
		groups = append(groups, singleGroup(m))
	}
	return groups
}

// pushHeader names p's stream — this engine's volume and p's shard —
// and, in GroupMode, the unit geometry of p's replica.
func (e *Engine) pushHeader(p *pipe) iscsi.PushHeader {
	hdr := iscsi.PushHeader{Mode: uint8(e.cfg.Mode), Shard: p.shard.id, Vol: e.cfg.Volume}
	if e.rsCodec != nil {
		hdr.Group = iscsi.StripeHeader{K: uint8(e.cfg.Group.K), N: uint8(e.cfg.Group.N), Idx: p.rs.unitIdx}
	}
	return hdr
}

// deliver ships one drained run of p's queue as one push and settles
// every message in it:
//
//  1. coalesce same-LBA PRINS parities into one entry;
//  2. consult the dedupe index — entries whose content the replica is
//     believed to hold ship as frameless references;
//  3. ship the push under the retry policy; the first reference the
//     replica cannot resolve refuses the rest of the push with
//     StatusRefMiss, and that suffix re-ships by value through the
//     same ship (replica seq-dedupe makes the overlap safe, and the
//     queued frames were retained for exactly this);
//  4. account every counter, then settle the messages — so a Drain
//     that returns sees the counters of everything it waited for.
//
// One diverged entry marks its own LBA dirty without failing its
// push-mates. A degraded replica gets nothing: the run is dropped
// into the dirty maps.
func (e *Engine) deliver(p *pipe, first repMsg) {
	rs := p.rs
	msgs := e.drainBatch(p, first)
	e.traffic.ObserveBatch(len(msgs))
	if rs.degraded.Load() {
		for _, m := range msgs {
			e.dropFrame(p, m.lba)
			e.finish(rs, m, lostErr(m, errUnitDropped))
		}
		return
	}

	groups := e.coalesce(msgs)
	if merged := int64(len(msgs) - len(groups)); merged > 0 {
		rs.m.AddCoalesced(merged)
		e.traffic.AddCoalesced(merged)
	}
	entries := make([]iscsi.BatchEntry, len(groups))
	for k, g := range groups {
		entries[k] = g.entry
	}
	byref := e.byrefHits(rs, entries)
	wireEntries := entries
	if byref != nil {
		wireEntries = make([]iscsi.BatchEntry, len(entries))
		copy(wireEntries, entries)
		for k, ref := range byref {
			if ref {
				wireEntries[k].Frame = nil
			}
		}
	}

	hdr := e.pushHeader(p)
	statuses, err := e.ship(p, hdr, wireEntries)
	if err != nil {
		err = fmt.Errorf("core: replicate push of %d: %w", len(entries), err)
	}
	wire := int64(wan.WireBytesDiscrete(iscsi.BatchWireLen(wireEntries)))
	missAt := len(entries)
	var fallbackErr error
	if err == nil {
		for k, st := range statuses {
			if st == iscsi.StatusRefMiss {
				missAt = k
				break
			}
		}
	}
	if missAt < len(entries) {
		if byref != nil && byref[missAt] {
			// Only the first refusal is a genuine miss verdict — the rest
			// of the suffix is refused unexamined to keep the replica's
			// seq cursor honest — so only its hash is provably stale.
			rs.dedupe.ForgetHash(entries[missAt].Hash)
		}
		fstat, ferr := e.ship(p, hdr, entries[missAt:])
		if ferr != nil {
			fallbackErr = fmt.Errorf("core: by-ref fallback push of %d: %w", len(entries)-missAt, ferr)
		} else {
			copy(statuses[missAt:], fstat)
			wire += int64(wan.WireBytesDiscrete(iscsi.BatchWireLen(entries[missAt:])))
		}
	}

	// Account. Frame sizes are read here, before any message settles:
	// finish releases the pooled frame, and a released frameBuf may be
	// concurrently reused by a writer's getFrame.
	type settlement struct {
		m   repMsg
		err error
	}
	settle := make([]settlement, 0, len(msgs))
	var okMsgs int
	var payload, unbatchedOK int64
	var dHits, dMisses, dSaved int64
	for k, g := range groups {
		ref := byref != nil && byref[k]
		failed := err
		if k >= missAt {
			if ref {
				dMisses++
			}
			failed = fallbackErr
		}
		st := iscsi.StatusError
		if failed == nil {
			st = statuses[k]
		}
		switch {
		case failed == nil && st == iscsi.StatusOK:
			okMsgs += len(g.msgs)
			frameCost := int64(len(g.entry.Frame))
			switch {
			case ref && k < missAt:
				// Delivered as a reference: the frame stayed home.
				dHits++
				dSaved += frameCost
			case k >= missAt && ref:
				// Fallback re-ship: the refused reference was overhead.
				payload += frameCost
				dSaved -= iscsi.BatchEntryOverhead
			case k >= missAt:
				// A by-value entry dragged into the fallback suffix: its
				// whole first attempt was overhead.
				payload += frameCost
				dSaved -= iscsi.BatchEntryOverhead + frameCost
			default:
				payload += frameCost
			}
			if rs.dedupe != nil {
				// The replica acknowledged holding this content at this
				// LBA: future ships of the same content can go by-ref.
				rs.dedupe.Put(g.entry.LBA, g.entry.Hash)
			}
			for _, m := range g.msgs {
				// Only delivered messages count toward the batching
				// baseline — a coalesced-then-refused entry saved nothing,
				// since its frames were never shipped at all.
				unbatchedOK += int64(wan.WireBytesDiscrete(len(m.frame.buf)))
				settle = append(settle, settlement{m, nil})
			}
		case failed == nil && st == iscsi.StatusDiverged:
			// Detected corruption at one block: dirty-map it for a ranged
			// resync. Retrying the same frame cannot help, and degrading
			// the whole replica would be overkill for one bad block.
			p.markDirty(g.entry.LBA)
			rs.m.AddDiverged()
			e.traffic.AddDiverged()
			for _, m := range g.msgs {
				settle = append(settle, settlement{m, lostErr(m,
					fmt.Errorf("core: replicate seq %d lba %d: %w", m.seq, m.lba, iscsi.ErrDiverged))})
			}
		default:
			// Undelivered: the block goes in the dirty map either way, so
			// DirtyRanges always names exactly what recovery must re-ship.
			p.markDirty(g.entry.LBA)
			if failed == nil {
				failed = fmt.Errorf("core: replicate seq %d lba %d: %w",
					g.entry.Seq, g.entry.LBA, iscsi.ReplicaStatusErr(g.entry.LBA, st))
			}
			if e.cfg.AllowDegraded {
				rs.degrade()
				for _, m := range g.msgs {
					e.dropFrame(p, m.lba)
					settle = append(settle, settlement{m, lostErr(m, errUnitDropped)})
				}
				continue
			}
			for _, m := range g.msgs {
				settle = append(settle, settlement{m, failed})
			}
		}
	}

	// Traffic counts what the replica acknowledged. A push that settles
	// several queued messages is a batch, its saving measured against
	// shipping each delivered frame alone; the wire covers every entry
	// the replica processed (the data segment, not the PDU header).
	if err == nil {
		if len(msgs) > 1 {
			rs.m.AddBatch(okMsgs, payload, wire, unbatchedOK-wire)
			e.traffic.AddBatch(okMsgs, payload, wire, unbatchedOK-wire)
		} else if okMsgs == 1 {
			rs.m.AddShipped(int(payload), int(wire))
			e.traffic.AddReplicated(int(payload), int(wire))
		}
	}
	if dHits != 0 || dMisses != 0 || dSaved != 0 {
		rs.m.AddDedupe(dHits, dMisses, dSaved)
		e.traffic.AddDedupe(dHits, dMisses, dSaved)
	}
	e.shardM.AddShipped(int(p.shard.id), int64(okMsgs))
	for _, st := range settle {
		e.finish(rs, st.m, st.err)
	}
}

// byrefHits marks the entries whose content hash the replica's dedupe
// index already names — the entries to ship as 28-byte references
// instead of frames. nil when nothing hits. A zero hash (unverified
// push) never hits: there is nothing the replica could address the
// content by.
func (e *Engine) byrefHits(rs *replicaState, entries []iscsi.BatchEntry) []bool {
	if rs.dedupe == nil {
		return nil
	}
	var hits []bool
	for k := range entries {
		if entries[k].Hash != 0 && rs.dedupe.Contains(entries[k].Hash) {
			if hits == nil {
				hits = make([]bool, len(entries))
			}
			hits[k] = true
		}
	}
	return hits
}

// ship performs the delivery attempts for one push. Transport failures
// retry the whole push under the retry policy — entries the replica
// already applied dedupe by seq on the stream cursor and come back
// StatusOK, so redelivery cannot double-XOR — while per-entry
// refusals ride the returned status vector and are never retried here
// (a diverged entry is deterministic corruption, not transient loss).
func (e *Engine) ship(p *pipe, hdr iscsi.PushHeader, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	rs := p.rs
	for attempt := 1; ; attempt++ {
		statuses, err := rs.client.Push(hdr, entries)
		if err == nil || attempt >= e.retry.Attempts {
			return statuses, err
		}
		rs.m.AddRetry()
		e.traffic.AddRetry()
		if d := e.retry.backoff(attempt); d > 0 {
			e.retry.Sleep(d)
		}
	}
}

// coalesce folds a drained batch into wire entries. In ModePRINS,
// same-LBA parities XOR-merge into one frame — P'1 xor P'2 is the
// combined delta of back-to-back writes, and since RS is linear over
// XOR the same holds for GroupMode delta units — and the merged entry
// keeps the LAST message's seq and hash: the hash describes the block
// after the newest write, and the newest seq keeps the replica's
// dedupe monotonic. Entries are then sorted by seq, because a merged
// entry carries a later seq than frames queued after its first
// appearance; shipping in first-appearance order could put that higher
// seq ahead of a lower one and trip the replica's dedupe into silently
// dropping a batch-mate. Other modes ship one entry per message
// unmerged (a whole-block frame already supersedes its predecessors,
// and dropping one would skip its ack).
func (e *Engine) coalesce(msgs []repMsg) []batchGroup {
	if e.cfg.Mode != ModePRINS {
		return plainGroups(msgs)
	}
	groups := make([]batchGroup, 0, len(msgs))
	idx := make(map[uint64]int, len(msgs)) // lba -> open group index
	parities := make(map[int][]byte)       // group index -> decoded XOR accumulator
	for _, m := range msgs {
		gi, seen := idx[m.lba]
		if !seen {
			idx[m.lba] = len(groups)
			groups = append(groups, singleGroup(m))
			continue
		}
		acc := parities[gi]
		if acc == nil {
			dec, err := xcode.Decode(groups[gi].entry.Frame)
			if err != nil {
				// Unmergeable frame (cannot happen for frames we encoded
				// ourselves); ship this message as its own entry — the
				// replica applies same-LBA entries in seq order regardless.
				idx[m.lba] = len(groups)
				groups = append(groups, singleGroup(m))
				continue
			}
			acc = dec
		}
		add, err := xcode.Decode(m.frame.buf)
		if err != nil || len(add) != len(acc) || parity.XORInPlace(acc, add) != nil {
			idx[m.lba] = len(groups)
			groups = append(groups, singleGroup(m))
			continue
		}
		parities[gi] = acc
		g := &groups[gi]
		g.entry.Seq, g.entry.Hash = m.seq, m.hash
		g.msgs = append(g.msgs, m)
	}
	for gi, acc := range parities {
		frame, err := xcode.EncodeBest(acc, e.cfg.Codecs...)
		if err != nil {
			// Cannot happen with a validated config; rather than ship a
			// wrong frame, fall back to the uncoalesced batch.
			return plainGroups(msgs)
		}
		groups[gi].entry.Frame = frame
	}
	sort.Slice(groups, func(a, b int) bool { return groups[a].entry.Seq < groups[b].entry.Seq })
	return groups
}

// dropFrame accounts one frame elided because the pipe's replica is
// degraded: the LBA goes in the pipe's dirty map, the replica's own
// dropped/lag counters advance, the engine-wide dropped total
// advances, and the engine-wide lag gauge is raised to the worst
// per-replica lag (max, not sum — see metrics.Traffic.RaiseReplicaLag).
func (e *Engine) dropFrame(p *pipe, lba uint64) {
	p.markDirty(lba)
	lag := p.rs.m.AddDropped()
	e.traffic.AddDropped()
	e.traffic.RaiseReplicaLag(lag)
	e.shardM.AddDropped(int(p.shard.id))
}
