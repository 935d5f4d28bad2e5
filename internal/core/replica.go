package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"prins/internal/block"
	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/metrics"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// streamKey packs a (vol, shard) replication stream tag into one map
// key.
func streamKey(shard uint8, vol uint16) uint32 {
	return uint32(vol)<<8 | uint32(shard)
}

// replicaStream is one (vol, shard) replication stream's apply state:
// its own dedupe cursor and scratch buffers, behind its own lock, so
// streams with disjoint LBA ranges apply concurrently. The merge-layer
// ordering rule: order is guaranteed within a stream (the primary
// ships each shard's frames in seq order over its own pipeline) and
// undefined across streams, which is safe because shards own disjoint
// LBA ranges.
type replicaStream struct {
	mu      sync.Mutex
	lastSeq uint64
	oldBuf  []byte
	newBuf  []byte
}

// ReplicaEngine is the replica-side PRINS engine: it receives encoded
// frames pushed by a primary, recovers the data block, and stores it
// in place at the same LBA. For ModePRINS frames that means the
// backward parity computation A_new = P' XOR A_old against the
// replica's own old copy, which exists because replication starts from
// an initial sync.
//
// A sharded primary ships one seq stream per (vol, shard); the engine
// keeps an independent dedupe cursor per stream (the merge layer), so
// interleaved streams over one session never trip each other's
// seq-dedupe.
//
// It implements iscsi.Backend so a replica node simply exports it
// through a target; it also applies pushes directly via ApplyPush for
// in-process (loopback) replication.
type ReplicaEngine struct {
	store   block.Store
	traffic *metrics.Traffic

	// mu serializes direct (non-replication) writes: the initial sync
	// and resync repairs. Stream applies do not take it — repairs must
	// be quiesced per the recovery lifecycle (Drain → resync →
	// ClearDegraded) before they may touch LBAs with applies in flight.
	mu sync.Mutex

	// streamsMu guards the stream table only; each stream has its own
	// apply lock.
	streamsMu sync.Mutex
	streams   map[uint32]*replicaStream

	// jrnl, when non-nil, is the crash-safe apply journal: the decoded
	// new block is persisted (Begin) before the in-place store write
	// and cleared (Commit) after, so a write torn by a crash — fatal
	// under PRINS, where the block would be neither A_old nor A_new
	// and poison every later XOR — is healed by replaying the journal.
	// The journal is single-slot, so journaled applies serialize on
	// jmu across all streams (the durable write per apply is the
	// bottleneck anyway); jmu is always acquired before any stream
	// lock.
	//
	//lint:lockorder core.ReplicaEngine.jmu < core.ReplicaEngine.streamsMu the journal serializes applies; the stream table is looked up inside the journaled section
	//lint:lockorder core.ReplicaEngine.jmu < core.replicaStream.mu per-stream state is updated inside the journaled apply
	jrnl *journal.Journal
	jmu  sync.Mutex
	// replay is set when a Begin landed but the store write or Commit
	// did not; the next apply replays the journal before proceeding.
	// Guarded by jmu.
	replay bool

	// Replica-group membership (SetGroupUnit): the k-of-n geometry and
	// unit index every push must carry to be applied; zero for a mirror
	// replica. Set before the engine is shared; read-only afterwards.
	group iscsi.StripeHeader

	// dedupe, when non-nil, is the content-addressed index over this
	// replica's own store: every verified apply records (lba -> hash),
	// so a by-ref entry can be materialized by local copy.
	// The index is advisory — a candidate block is re-hashed before it
	// is copied, so a stale entry costs a StatusRefMiss, never a wrong
	// block. Set before the engine is shared (SetDedupe); the Index has
	// its own lock.
	dedupe *dedupe.Index
}

var _ iscsi.Backend = (*ReplicaEngine)(nil)

// NewReplicaEngine wraps the replica's local store with no journal;
// applies are not crash-safe. Use NewReplicaEngineJournaled for the
// durable variant.
func NewReplicaEngine(store block.Store) *ReplicaEngine {
	return &ReplicaEngine{
		store:   store,
		traffic: &metrics.Traffic{},
		streams: make(map[uint32]*replicaStream),
		dedupe:  dedupe.New(0),
	}
}

// SetDedupe bounds (entries > 0) or disables (entries <= 0) the
// replica's content-addressed index. Call before the engine is shared.
// A replica without an index refuses every by-ref push with
// StatusRefMiss, which the primary transparently repairs by re-shipping
// the frame — so disabling dedupe is always safe, just slower.
func (r *ReplicaEngine) SetDedupe(entries int) {
	if entries <= 0 {
		r.dedupe = nil
		return
	}
	r.dedupe = dedupe.New(entries)
}

// DedupeIndex returns the replica's content index, or nil when dedupe
// is disabled.
func (r *ReplicaEngine) DedupeIndex() *dedupe.Index { return r.dedupe }

// WarmDedupe scans the replica's store and indexes every block's
// content hash (subject to the index bound), so a freshly restarted
// replica resolves by-ref pushes without waiting for live applies to
// repopulate the index. Call before the engine is shared or with
// applies quiesced.
func (r *ReplicaEngine) WarmDedupe() error {
	if r.dedupe == nil {
		return nil
	}
	buf := make([]byte, r.store.BlockSize())
	for lba := uint64(0); lba < r.store.NumBlocks(); lba++ {
		if err := r.store.ReadBlock(lba, buf); err != nil {
			return fmt.Errorf("core: dedupe warm lba %d: %w", lba, err)
		}
		r.dedupe.Put(lba, iscsi.HashBlock(buf))
	}
	return nil
}

// indexApply records a verified apply in the content index. A zero
// hash (unverified push) forgets the LBA instead — its content is no
// longer something the index can vouch for.
func (r *ReplicaEngine) indexApply(lba, hash uint64) {
	if r.dedupe != nil {
		r.dedupe.Put(lba, hash)
	}
}

// NewReplicaEngineJournaled wraps the replica's local store with a
// crash-safe apply journal and immediately replays any intent a crash
// left behind, restoring the invariant that every block holds either
// its pre-image or its fully-applied new content before the first
// push arrives.
func NewReplicaEngineJournaled(store block.Store, jrnl *journal.Journal) (*ReplicaEngine, error) {
	r := NewReplicaEngine(store)
	r.jrnl = jrnl
	r.jmu.Lock()
	err := r.replayJournal()
	r.jmu.Unlock()
	if err != nil {
		return nil, err
	}
	return r, nil
}

// stream returns the (vol, shard) stream's state, creating it on first
// use.
func (r *ReplicaEngine) stream(shard uint8, vol uint16) *replicaStream {
	key := streamKey(shard, vol)
	r.streamsMu.Lock()
	defer r.streamsMu.Unlock()
	st, ok := r.streams[key]
	if !ok {
		st = &replicaStream{
			oldBuf: make([]byte, r.store.BlockSize()),
			newBuf: make([]byte, r.store.BlockSize()),
		}
		r.streams[key] = st
	}
	return st
}

// replayJournal redoes the journaled intent, if any — one entry for a
// single-slot record, every entry of a group record. Called with r.jmu
// held (or before the engine is shared) and no stream lock held — each
// entry's stream cursor is advanced under that stream's own lock.
// Replay is an idempotent whole-block rewrite, so replaying an intent
// whose store writes had in fact completed (in full or in part) is
// harmless.
func (r *ReplicaEngine) replayJournal() error {
	entries, err := r.jrnl.PendingEntries()
	if err != nil {
		return fmt.Errorf("core: replica journal: %w", err)
	}
	r.replay = false
	if len(entries) == 0 {
		return nil
	}
	for i := range entries {
		if len(entries[i].Block) != r.store.BlockSize() {
			return fmt.Errorf("core: replica journal: entry is %d bytes, block size %d",
				len(entries[i].Block), r.store.BlockSize())
		}
	}
	for i := range entries {
		e := &entries[i]
		if err := r.store.WriteBlock(e.LBA, e.Block); err != nil {
			r.replay = true // keep the intent; try again next apply
			return fmt.Errorf("core: replica journal replay lba %d: %w: %w",
				e.LBA, iscsi.ErrReplicaStore, err)
		}
	}
	if err := r.jrnl.Commit(); err != nil {
		r.replay = true
		return fmt.Errorf("core: replica journal replay: %w", err)
	}
	// The journaled seqs were applied; advancing each stream's lastSeq
	// makes the primary's redelivery of them dedupe instead of
	// double-XORing.
	for i := range entries {
		e := &entries[i]
		st := r.stream(e.Shard, e.Vol)
		st.mu.Lock()
		if e.Seq > st.lastSeq {
			st.lastSeq = e.Seq
		}
		st.mu.Unlock()
		r.traffic.AddReplicaWrite()
		r.indexApply(e.LBA, e.Hash)
	}
	return nil
}

// Traffic returns the replica's counters (decode time, applied writes).
func (r *ReplicaEngine) Traffic() *metrics.Traffic { return r.traffic }

// LastSeq returns the highest sequence number applied on the default
// (zero) stream.
func (r *ReplicaEngine) LastSeq() uint64 { return r.StreamLastSeq(0, 0) }

// StreamLastSeq returns the highest sequence number applied on the
// (vol, shard) stream.
func (r *ReplicaEngine) StreamLastSeq(shard uint8, vol uint16) uint64 {
	st := r.stream(shard, vol)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lastSeq
}

// Store returns the underlying replica store (read-only use expected).
func (r *ReplicaEngine) Store() block.Store { return r.store }

// ApplyPush applies one push against the (vol, shard) stream named in
// hdr and returns one status per entry, in the caller's order.
//
// Deliveries are deduplicated by sequence number per stream: the
// primary ships each stream's entries in seq order, so an entry at or
// below the stream's lastSeq is a retried delivery whose first copy
// already landed (the ack was lost, not the push). It is acknowledged
// without being re-applied — essential in ModePRINS, where XOR-ing the
// same parity twice would corrupt the block rather than no-op. So when
// a connection drops mid-push and the whole push is redelivered, the
// already-applied prefix is acknowledged instead of double-XORed.
//
// The push is staged in memory first, then made durable as one unit:
//
//  1. In seq order: dedupe against the stream cursor, then recover the
//     full new block — a by-ref entry by verified local copy through
//     the content index, a by-value entry by decoding its frame (in
//     ModePRINS XORed onto the pre-image, where a staged same-LBA
//     predecessor in the same push serves as the pre-image exactly as
//     if it had already landed) — and verify the content hash. A hash
//     mismatch is StatusDiverged: the replica's pre-image already
//     differs from what the primary XORed against, so writing would
//     replace silent corruption with fresh silent corruption; the
//     primary repairs the LBA with a ranged resync instead. Refused
//     entries get their status here and drop out; nothing has touched
//     the store or journal yet.
//  2. The first by-ref entry the index cannot resolve is refused with
//     StatusRefMiss, and so is every later entry of the push: the
//     initiator re-ships that suffix by value with the SAME seqs, so
//     the stream cursor must not advance past them, or seq-dedupe
//     would silently drop the repair.
//  3. One journal intent covers every surviving entry — a single group
//     record with one CRC pass and one sync.
//  4. In-place store writes in seq order.
//  5. One journal Commit clears the group.
//
// Crash safety is all-commit-or-all-replay: after the Begin, a crash
// (or store failure) anywhere before Commit leaves the whole group
// journaled, and the next apply — or restart — replays every entry as
// an idempotent whole-block rewrite, so the store can never be left
// holding a torn suffix of the push.
//
// A push whose group geometry differs from the replica's (a mirror
// push to a group member, a stripe push to a mirror replica or another
// unit) is refused as a whole with StatusBadRequest: applying unit
// bytes under the wrong code would silently corrupt the copy.
func (r *ReplicaEngine) ApplyPush(hdr iscsi.PushHeader, entries []iscsi.BatchEntry) []iscsi.Status {
	mode := Mode(hdr.Mode)
	if hdr.Group != r.group {
		return iscsi.Refuse(len(entries), iscsi.StatusBadRequest)
	}
	if !mode.Valid() {
		return iscsi.Refuse(len(entries), iscsi.StatusError)
	}
	statuses := make([]iscsi.Status, len(entries))

	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return entries[order[a]].Seq < entries[order[b]].Seq
	})

	if r.jrnl != nil {
		// The single-slot journal serializes journaled applies; taking
		// jmu before the stream lock also lets replay lock any stream.
		r.jmu.Lock()
		defer r.jmu.Unlock()
		if r.replay {
			if err := r.replayJournal(); err != nil {
				return iscsi.Refuse(len(entries), statusOf(err))
			}
		}
	}

	st := r.stream(hdr.Shard, hdr.Vol)
	st.mu.Lock()
	defer st.mu.Unlock()

	start := time.Now()
	bs := r.store.BlockSize()

	// Stage. cursor advances past staged seqs so an in-push duplicate
	// dedupes exactly as it would against an applied push; st.lastSeq
	// itself only moves once the push is durable.
	type stagedEntry struct {
		k     int // index into entries/statuses
		seq   uint64
		lba   uint64
		block []byte
	}
	var pass []stagedEntry
	pendingNew := make(map[uint64][]byte)
	cursor := st.lastSeq
	for oi, k := range order {
		e := entries[k]
		if e.Seq != 0 && e.Seq <= cursor {
			r.traffic.AddDuplicate()
			statuses[k] = iscsi.StatusOK
			continue
		}
		var newBlock []byte
		if e.ByRef() {
			newBlock = make([]byte, bs)
			if !r.resolveRef(e.Hash, newBlock) {
				r.traffic.AddDedupeMiss()
				for _, rest := range order[oi:] {
					statuses[rest] = iscsi.StatusRefMiss
				}
				break
			}
			r.traffic.AddDedupeHit()
		} else {
			payload, err := xcode.Decode(e.Frame)
			if err != nil {
				statuses[k] = iscsi.StatusDecodeError
				continue
			}
			if len(payload) != bs {
				statuses[k] = iscsi.StatusBadRequest
				continue
			}
			newBlock = payload
			if mode == ModePRINS {
				pre := pendingNew[e.LBA]
				if pre == nil {
					if err := r.store.ReadBlock(e.LBA, st.oldBuf); err != nil {
						statuses[k] = statusOf(err)
						continue
					}
					pre = st.oldBuf
				}
				// Decode never aliases its input, so the backward XOR can
				// fold the pre-image into the decoded parity in place.
				if err := parity.XORInPlace(newBlock, pre); err != nil {
					statuses[k] = statusOf(err)
					continue
				}
			}
			if e.Hash != 0 {
				if got := iscsi.HashBlock(newBlock); got != e.Hash {
					r.traffic.AddDiverged()
					statuses[k] = iscsi.StatusDiverged
					continue
				}
			}
		}
		if e.Seq > cursor {
			cursor = e.Seq
		}
		pendingNew[e.LBA] = newBlock
		pass = append(pass, stagedEntry{k: k, seq: e.Seq, lba: e.LBA, block: newBlock})
	}
	if len(pass) == 0 {
		r.traffic.AddDecodeTime(time.Since(start))
		return statuses
	}

	// One group intent for the whole push.
	if r.jrnl != nil {
		jes := make([]journal.Entry, len(pass))
		for i, p := range pass {
			jes[i] = journal.Entry{
				Seq: p.seq, LBA: p.lba, Hash: entries[p.k].Hash,
				Shard: hdr.Shard, Vol: hdr.Vol, Block: p.block,
			}
		}
		if err := r.jrnl.BeginGroupStream(hdr.Shard, hdr.Vol, jes); err != nil {
			// The intent never landed (a torn Begin is discarded by
			// replay), so nothing was written: fail the survivors with no
			// replay owed.
			for _, p := range pass {
				statuses[p.k] = iscsi.StatusStoreError
			}
			r.traffic.AddDecodeTime(time.Since(start))
			return statuses
		}
	}

	// In-place writes, seq order.
	var maxApplied uint64
	journalTorn := false
	for i, p := range pass {
		if err := r.store.WriteBlock(p.lba, p.block); err != nil {
			werr := fmt.Errorf("%w: %w", iscsi.ErrReplicaStore, err)
			if r.jrnl != nil {
				// The group intent stays journaled: the written prefix is
				// durable, and every entry — this one included — is
				// replayed before the next apply touches the store.
				r.replay = true
				journalTorn = true
				for _, q := range pass[i:] {
					statuses[q.k] = statusOf(werr)
				}
				break
			}
			// Unjournaled applies keep per-entry independence: each
			// staged block is a full rewrite, so a failed push-mate
			// cannot corrupt a later one.
			statuses[p.k] = statusOf(werr)
			continue
		}
		statuses[p.k] = iscsi.StatusOK
		if p.seq > maxApplied {
			maxApplied = p.seq
		}
	}

	if journalTorn {
		// Counters and the cursor advance when replay makes the group
		// durable — counting the written prefix here would double-count
		// it against the replay.
		r.traffic.AddDecodeTime(time.Since(start))
		return statuses
	}

	// One Commit clears the group.
	if r.jrnl != nil {
		if err := r.jrnl.Commit(); err != nil {
			// The intent stays; replay rewrites the group and advances the
			// cursor, after which redelivery dedupes.
			r.replay = true
			for _, p := range pass {
				statuses[p.k] = iscsi.StatusStoreError
			}
			r.traffic.AddDecodeTime(time.Since(start))
			return statuses
		}
	}

	for _, p := range pass {
		if statuses[p.k] == iscsi.StatusOK {
			r.traffic.AddReplicaWrite()
			r.indexApply(p.lba, entries[p.k].Hash)
		}
	}
	if maxApplied > st.lastSeq {
		st.lastSeq = maxApplied
	}
	r.traffic.AddDecodeTime(time.Since(start))
	return statuses
}

// SetGroupUnit declares this replica a member of a k-of-n replica
// group storing unit idx. Its store must be unit-sized (the primary's
// Engine.GroupUnitSize), and a push whose geometry does not match is
// refused wholesale (see ApplyPush). Call before the engine is shared;
// a replica that never calls it accepts mirror pushes only.
func (r *ReplicaEngine) SetGroupUnit(k, n, idx int) error {
	if k < 1 || k > n || n > parity.MaxGroupUnits || idx < 0 || idx >= n {
		return fmt.Errorf("core: invalid group unit k=%d n=%d idx=%d", k, n, idx)
	}
	r.group = iscsi.StripeHeader{K: uint8(k), N: uint8(n), Idx: uint8(idx)}
	return nil
}

// GroupUnit returns the replica's group geometry and whether it is a
// group member.
func (r *ReplicaEngine) GroupUnit() (iscsi.StripeHeader, bool) {
	return r.group, r.group != iscsi.StripeHeader{}
}

// resolveRef materializes the block whose content hash is hash into
// dst by copying it from some LBA the content index maps to it. Every
// candidate is re-hashed after the read, so a stale index entry is
// corrected (forgotten) and the next candidate tried — the index is
// advisory, the hash check is the authority. Reports false when no
// verifiable holder exists.
func (r *ReplicaEngine) resolveRef(hash uint64, dst []byte) bool {
	if r.dedupe == nil {
		return false
	}
	// Each failed candidate is forgotten before the retry, so the loop
	// strictly shrinks the hash's LBA set; the cap just bounds the work
	// a pathologically stale index can cost one entry.
	for tries := 0; tries < 4; tries++ {
		src, ok := r.dedupe.Lookup(hash)
		if !ok {
			return false
		}
		if err := r.store.ReadBlock(src, dst); err != nil {
			r.dedupe.Forget(src)
			continue
		}
		if iscsi.HashBlock(dst) != hash {
			r.dedupe.Forget(src)
			continue
		}
		return true
	}
	return false
}

// Geometry implements iscsi.Backend.
func (r *ReplicaEngine) Geometry() (int, uint64) {
	return r.store.BlockSize(), r.store.NumBlocks()
}

// HandleRead implements iscsi.Backend, serving reads off the replica
// copy (e.g. for verification or failover).
func (r *ReplicaEngine) HandleRead(lba uint64, blocks uint32, dst []byte) ([]byte, iscsi.Status) {
	out, err := block.AppendBlocks(dst, r.store, lba, blocks)
	if err != nil {
		return nil, statusOf(err)
	}
	return out, iscsi.StatusOK
}

// HandleWrite implements iscsi.Backend. Direct writes are used by the
// initial sync and resync repairs; they bypass replication (a replica
// does not re-replicate).
func (r *ReplicaEngine) HandleWrite(lba uint64, data []byte) iscsi.Status {
	bs := r.store.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return iscsi.StatusBadRequest
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i*bs < len(data); i++ {
		chunk := data[i*bs : (i+1)*bs]
		if err := r.store.WriteBlock(lba+uint64(i), chunk); err != nil {
			return statusOf(err)
		}
		// Direct writes (initial sync, resync repairs) warm the content
		// index too: the hash is computed here because none is shipped.
		if r.dedupe != nil {
			r.dedupe.Put(lba+uint64(i), iscsi.HashBlock(chunk))
		}
	}
	return iscsi.StatusOK
}

// HandlePush implements iscsi.Backend: the wire entry point for pushes
// from the primary's engine.
func (r *ReplicaEngine) HandlePush(hdr iscsi.PushHeader, entries []iscsi.BatchEntry) []iscsi.Status {
	return r.ApplyPush(hdr, entries)
}

// Loopback adapts a ReplicaEngine into a ReplicaClient, replicating
// in-process with no transport. Benchmarks use it to measure pure
// engine behaviour; it also models co-located replicas.
type Loopback struct {
	Replica *ReplicaEngine
}

var _ ReplicaClient = (*Loopback)(nil)

// Push implements ReplicaClient.
func (l *Loopback) Push(hdr iscsi.PushHeader, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	return l.Replica.ApplyPush(hdr, entries), nil
}
