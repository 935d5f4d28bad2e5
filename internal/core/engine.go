package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"prins/internal/block"
	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/metrics"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// ReplicaClient delivers replication pushes to one replica node:
// Push ships entries for the (vol, shard) stream named in hdr, with
// hdr's group geometry (zero when mirroring), and returns one status
// per entry. A transport failure returns an error and no statuses.
// iscsi.Initiator implements it for remote replicas, Loopback
// in-process, and resync.ResilientClient over a self-healing session.
type ReplicaClient interface {
	Push(hdr iscsi.PushHeader, entries []iscsi.BatchEntry) ([]iscsi.Status, error)
}

var _ ReplicaClient = (*iscsi.Initiator)(nil)

// ParityWriter is the optional fast path a RAID array provides: a
// write that returns the forward parity it computed anyway while
// updating the parity disk. When the primary store implements it and
// the engine runs in ModePRINS, replication adds no XOR of its own —
// the paper's zero-overhead case.
type ParityWriter interface {
	WriteBlockWithParity(lba uint64, data []byte) ([]byte, error)
}

// MaxShards bounds Config.Shards: the wire protocol carries the shard
// index as a uint8.
const MaxShards = 256

// GroupConfig selects erasure-coded replica groups (GroupMode): each
// replicated block is Reed-Solomon-striped into N unit frames, one per
// attached replica, and any K of them reconstruct the block. The zero
// value keeps mirroring. With GroupMode on:
//
//   - Exactly N replicas must be attached, in unit order: replica i
//     (attach order) stores unit i. Each replica's store is unit-sized
//     (parity.RS.UnitSize of the primary block size), so the group's
//     total replica footprint is N/K blocks instead of N.
//   - A synchronous write acknowledges at quorum: it succeeds once any
//     K of the N stripe units are durably applied (journaled, when the
//     replicas journal); the remaining units settle asynchronously and
//     per-replica lag/dirty tracking names what is still owed.
//   - In ModePRINS the stripe carries RS(P'), the code applied to the
//     forward parity — RS is linear over XOR, so the replica's usual
//     backward XOR against its old unit recovers its new unit exactly.
type GroupConfig struct {
	K, N int
}

// enabled reports whether GroupMode is on.
func (g GroupConfig) enabled() bool { return g.N > 0 }

// Config parameterizes an Engine.
type Config struct {
	// Mode selects the replication technique. Required.
	Mode Mode
	// Codecs are the candidate codecs for ModePRINS parity encoding;
	// the smallest frame wins (never larger than raw framing — see
	// xcode.EncodeBest). Defaults to ZRL only (the fast path).
	Codecs []xcode.Codec
	// Async, when true, returns from a write as soon as the frame is
	// enqueued on every replica's pipeline; delivery errors surface on
	// Drain. When false every write blocks until all replicas
	// acknowledged (the acks are awaited in parallel, outside the
	// engine lock).
	Async bool
	// QueueDepth bounds each (shard, replica) ship queue. Defaults to
	// 256. When a pipeline's queue is full the write path blocks,
	// bounding memory — a persistently slow replica eventually
	// backpressures writers rather than buffering without limit.
	QueueDepth int
	// SkipUnchanged, when true, elides replication of writes whose
	// parity is all zeros (the block did not change). Only meaningful
	// in ModePRINS.
	SkipUnchanged bool
	// RecordDensity enables per-write change-density accounting.
	RecordDensity bool
	// Retry governs frame delivery to each replica: attempts, per-
	// attempt timeout, and exponential backoff. The zero value keeps
	// the historical single-attempt behaviour.
	Retry RetryPolicy
	// AllowDegraded keeps the write path available when a replica
	// exhausts its retry budget: that replica is marked degraded,
	// subsequent frames to it are counted as dropped instead of
	// shipped, and writes keep succeeding locally. The way back is
	// quiesce (Drain) → resync the replica → ClearDegraded. When false
	// (the default) delivery failures surface as write errors (sync
	// mode) or on Drain (async mode), as they always have.
	AllowDegraded bool
	// BatchFrames caps how many queued frames one shipper delivery may
	// carry in a single push. The shipper drains opportunistically:
	// whatever is queued when it wakes (up to the caps) goes out as one
	// push, so an idle pipeline still ships each frame immediately and
	// it is backlog — WAN latency, bursts — that forms batches. Zero
	// means the default (32); 1 disables batching (every push carries
	// one entry).
	BatchFrames int
	// BatchBytes soft-caps the encoded payload bytes of one batch:
	// draining stops once the accumulated frames reach it (the frame
	// that crosses the line still rides along). Zero means the default
	// (1 MiB).
	BatchBytes int
	// DisableVerify turns off content-hash verification of replica
	// applies. By default every shipped frame carries the hash of the
	// decoded new block and the replica refuses (StatusDiverged) an
	// apply whose recovered block does not match — which in ModePRINS
	// catches a replica whose pre-image has silently diverged before
	// the bad XOR lands. Disabling restores the unverified wire cost.
	DisableVerify bool
	// Shards splits the device into that many contiguous LBA ranges,
	// each with its own write lock, sequence space, dirty maps, and
	// per-replica ship pipelines, so writers on different shards never
	// contend. Same-LBA ordering is preserved (an LBA always maps to
	// the same shard); cross-shard ordering is undefined, which is safe
	// because shards own disjoint LBA ranges. Every push names its
	// shard, and the replica keeps one seq cursor per (vol, shard)
	// stream. Zero or one keeps the single-lock engine. Maximum
	// MaxShards.
	Shards int
	// Volume tags every replication stream this engine ships with a
	// volume id, so several logical volumes can multiplex their pushes
	// over one shared replica session (see VolumeManager). Zero is the
	// default for a standalone engine.
	Volume uint16
	// FlushWindow enables primary-side group commit: writers landing on
	// the same shard within the window are drained as one unit — a
	// single shard-lock pass covers every queued write's local apply,
	// seq allocation, and pipeline enqueue, amortizing the fixed
	// per-write costs over the group. The first writer to arrive leads:
	// it waits (no locks held) until the window elapses or the queue
	// fills a whole FlushFrames chunk — whichever comes first — then
	// commits the whole queue; followers just wait for their result.
	// The window is a latency deadline, not a mandatory delay: a
	// saturated shard groups at arrival speed. Per-write latency is
	// bounded by the window plus the commit itself. Zero (the default)
	// disables group commit and keeps the per-write path.
	FlushWindow time.Duration
	// Group, when set (N > 0), runs the engine in GroupMode: writes are
	// RS-striped K-of-N across the replica set with quorum commit and
	// unit-sized replica stores. See GroupConfig. Incompatible with
	// FlushWindow (group commit batches whole-block frames; a striped
	// write already fans out per unit) and with DedupeEntries.
	Group GroupConfig
	// DedupeEntries enables the content-addressed ship-by-reference
	// fast path and bounds the per-replica index backing it: for each
	// attached replica the engine tracks up to this many (lba -> content
	// hash) pairs it believes the replica holds, fed by acknowledged
	// ships and resync scans. A push entry whose content hash is already
	// indexed ships as a 28-byte reference instead of the parity frame;
	// a replica-side miss falls back to re-shipping the frame, so
	// correctness never depends on the index. Zero (the default)
	// disables the fast path; negative selects the default bound
	// (dedupe.DefaultEntries). Validate refuses it together with
	// DisableVerify (ErrDedupeNoVerify: no content hashes to address by)
	// and with Group (ErrDedupeGroup: unit frames are replica-specific
	// stripes, not content-addressable blocks).
	DedupeEntries int
	// FlushFrames caps how many queued writes one group-commit flush
	// drains per shard-lock pass (a larger backlog commits in
	// successive passes, so the lock is never held for an unbounded
	// batch) and doubles as the early-flush trigger: a queue that
	// fills to FlushFrames commits without waiting out the window.
	// Zero means the default (64), capped at iscsi.MaxBatchFrames.
	// Ignored unless FlushWindow is set.
	FlushFrames int
}

func (c Config) withDefaults() Config {
	if len(c.Codecs) == 0 {
		c.Codecs = []xcode.Codec{xcode.CodecZRL}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.BatchFrames == 0 {
		c.BatchFrames = 32
	}
	if c.BatchFrames < 1 {
		c.BatchFrames = 1
	}
	if c.BatchFrames > iscsi.MaxBatchFrames {
		c.BatchFrames = iscsi.MaxBatchFrames
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 1 << 20
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.FlushWindow > 0 {
		if c.FlushFrames <= 0 {
			c.FlushFrames = 64
		}
		if c.FlushFrames > iscsi.MaxBatchFrames {
			c.FlushFrames = iscsi.MaxBatchFrames
		}
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Mode.Valid() {
		return fmt.Errorf("core: invalid mode %d", uint8(c.Mode))
	}
	for _, cc := range c.Codecs {
		if !cc.Valid() {
			return fmt.Errorf("core: invalid codec %d", uint8(cc))
		}
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("core: %d shards exceeds the maximum %d", c.Shards, MaxShards)
	}
	if c.Group.enabled() {
		if c.Group.K < 1 || c.Group.K > c.Group.N || c.Group.N > parity.MaxGroupUnits {
			return fmt.Errorf("core: invalid replica group k=%d n=%d", c.Group.K, c.Group.N)
		}
		if c.FlushWindow > 0 {
			return fmt.Errorf("core: GroupMode is incompatible with FlushWindow group commit")
		}
		if c.DedupeEntries != 0 {
			return ErrDedupeGroup
		}
	}
	if c.DedupeEntries != 0 && c.DisableVerify {
		return ErrDedupeNoVerify
	}
	return nil
}

// ErrEngineClosed is returned for writes after Close.
var ErrEngineClosed = errors.New("core: engine closed")

// ErrDedupeGroup reports DedupeEntries set on a GroupMode engine: a
// stripe unit is not a whole block, so there is no content to ship by
// reference.
var ErrDedupeGroup = errors.New("core: dedupe is incompatible with GroupMode")

// ErrDedupeNoVerify reports DedupeEntries set with DisableVerify: an
// unverified push carries no content hash to address by.
var ErrDedupeNoVerify = errors.New("core: dedupe requires verification (DisableVerify is set)")

// ErrGroupReplicas reports a GroupMode write attempted without exactly
// N attached replicas, or an attach beyond the group size.
var ErrGroupReplicas = errors.New("core: GroupMode engine requires exactly n attached replicas")

// errUnitDropped reports a stripe unit elided because its replica is
// degraded. Unlike a mirror-mode drop — where the block still lands
// whole on every healthy replica — a dropped unit is redundancy the
// group genuinely lost, so a synchronous writer counts it against the
// quorum instead of treating it as delivered.
var errUnitDropped = errors.New("core: stripe unit dropped (replica degraded)")

// shard is one contiguous LBA range's independent write path: its own
// lock (write order = seq order within the shard), sequence space,
// scratch buffers, and one ship pipeline per attached replica.
type shard struct {
	id     uint8
	mu     sync.Mutex
	seq    uint64
	oldBuf []byte
	fpBuf  []byte
	pipes  []*pipe // one per replica, attach order

	// GroupMode scratch (Config.Group set), guarded by mu like the
	// other per-shard buffers: the n unit slices a striped write RS-
	// encodes its payload into, a second bank for the new-data units a
	// PRINS stripe hashes (the shipped payload is RS of the delta, but
	// the replica verifies the unit it recovers), and the per-unit
	// frame pointers of the write in flight.
	gUnits [][]byte
	gNew   [][]byte
	gFrame []*frameBuf

	// Group-commit state (Config.FlushWindow > 0). Writers append to
	// gcQueue under gcMu; the first writer of a window becomes the
	// leader, waits out the flush window with no locks held, then
	// commits the whole queue under a single s.mu pass. gcMu is a leaf
	// lock: never acquired with s.mu held. gcWake carries the early
	// flush signal: the follower whose arrival fills the queue to
	// FlushFrames nudges the leader instead of letting it sleep out
	// the rest of the window — the window is a latency deadline, not a
	// mandatory wait, so a saturated shard groups at arrival speed. A
	// stale token (leader already woken by the timer) at worst wakes
	// the next leader into a smaller group, which is always safe.
	gcMu     sync.Mutex
	gcQueue  []*gcReq
	gcLeader bool
	gcWake   chan struct{}
}

// gcReq is one writer's slot in a shard's group-commit queue. The
// leader fills err/ack/n during the commit pass and closes done; the
// owning writer then collects its own acks outside every lock, exactly
// like the ungrouped path.
type gcReq struct {
	lba  uint64
	data []byte
	done chan struct{}
	err  error
	ack  chan error
	n    int // acks to await (sync mode)
}

// Engine is the primary-side PRINS engine. It wraps the local block
// store; writes through the engine hit local storage and are
// replicated to every attached replica in the configured mode.
//
// The write path is sharded: the device is split into Config.Shards
// contiguous LBA ranges, and each shard owns its lock, seq space, and
// per-replica ship pipelines (see pipeline.go), so writers on
// different shards proceed in parallel end to end. An LBA always maps
// to the same shard, preserving same-LBA ordering; the replica keeps
// one dedupe cursor per shard stream, so cross-shard interleaving on
// the wire is harmless.
//
// Engine implements block.Store, so a filesystem, database pager, or
// iSCSI target backend can sit directly on top of it.
type Engine struct {
	cfg   Config
	retry RetryPolicy // cfg.Retry with defaults applied
	local block.Store
	pw    ParityWriter // non-nil if local supports the RAID fast path
	//lint:lockorder core.shard.mu < core.Engine.pwMu the fast path is entered from inside a shard's critical section
	pwMu    sync.Mutex // serializes the shared fast path across shards
	traffic *metrics.Traffic
	density *parity.DensityStats
	shardM  *metrics.ShardSet

	// rsCodec is the group's Reed-Solomon code; non-nil exactly when
	// Config.Group is set, and doubles as the GroupMode discriminator
	// on the hot path.
	rsCodec *parity.RS

	replicas []*replicaState

	shards    []*shard
	shardSize uint64 // LBAs per shard (the last shard may be short)

	closed   atomic.Bool
	done     chan struct{}  // closed once, after Close has quiesced
	shippers sync.WaitGroup // one per (shard, replica) pipeline
}

var _ block.Store = (*Engine)(nil)
var _ iscsi.Backend = (*Engine)(nil)

// NewEngine wraps local with a replication engine in the given config.
// Replicas are attached afterwards with AttachReplica.
func NewEngine(local block.Store, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	nb := local.NumBlocks()
	n := cfg.Shards
	if nb > 0 && uint64(n) > nb {
		n = int(nb) // never more shards than blocks
	}
	shardSize := uint64(1)
	if nb > 0 {
		shardSize = (nb + uint64(n) - 1) / uint64(n)
	}

	e := &Engine{
		cfg:       cfg,
		retry:     cfg.Retry.withDefaults(),
		local:     local,
		traffic:   &metrics.Traffic{},
		density:   &parity.DensityStats{},
		shardM:    metrics.NewShardSet(n),
		shards:    make([]*shard, n),
		shardSize: shardSize,
		done:      make(chan struct{}),
	}
	e.traffic.AttachShards(e.shardM)
	if cfg.Group.enabled() {
		rs, err := parity.NewRS(cfg.Group.K, cfg.Group.N)
		if err != nil {
			return nil, fmt.Errorf("core: replica group: %w", err)
		}
		e.rsCodec = rs
	}
	for i := range e.shards {
		s := &shard{
			id:     uint8(i),
			oldBuf: make([]byte, local.BlockSize()),
			fpBuf:  make([]byte, local.BlockSize()),
			gcWake: make(chan struct{}, 1),
		}
		if e.rsCodec != nil {
			u := e.rsCodec.UnitSize(local.BlockSize())
			s.gUnits = make([][]byte, cfg.Group.N)
			s.gNew = make([][]byte, cfg.Group.N)
			for j := range s.gUnits {
				s.gUnits[j] = make([]byte, u)
				s.gNew[j] = make([]byte, u)
			}
			s.gFrame = make([]*frameBuf, cfg.Group.N)
		}
		e.shards[i] = s
	}
	if pw, ok := local.(ParityWriter); ok {
		e.pw = pw
	}
	return e, nil
}

// shardOf routes an LBA to its shard. Out-of-range LBAs clamp to the
// last shard; the store rejects them with ErrOutOfRange anyway.
func (e *Engine) shardOf(lba uint64) *shard {
	i := lba / e.shardSize
	if i >= uint64(len(e.shards)) {
		i = uint64(len(e.shards)) - 1
	}
	return e.shards[i]
}

// Shards returns how many LBA-range shards the engine runs.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardRange returns the LBA range shard s owns.
func (e *Engine) ShardRange(s int) block.Range {
	if s < 0 || s >= len(e.shards) {
		return block.Range{}
	}
	start := uint64(s) * e.shardSize
	count := e.shardSize
	if nb := e.local.NumBlocks(); start+count > nb {
		count = nb - start
	}
	return block.Range{Start: start, Count: count}
}

// ShardStats snapshots the per-shard write-path counters, indexed by
// shard id.
func (e *Engine) ShardStats() []metrics.ShardSnapshot { return e.shardM.Snapshot() }

// AttachReplica adds a replication destination and starts one ship
// pipeline per shard for it. Not safe to call concurrently with
// writes; attach replicas before serving I/O. In GroupMode the attach
// order is the unit order, and at most N replicas attach. When the
// retry policy carries a per-attempt timeout and the client supports
// request deadlines, the timeout is installed here.
func (e *Engine) AttachReplica(rc ReplicaClient) error {
	rs := &replicaState{client: rc}
	if e.rsCodec != nil {
		if len(e.replicas) >= e.cfg.Group.N {
			return fmt.Errorf("%w: group is n=%d, replica %d refused",
				ErrGroupReplicas, e.cfg.Group.N, len(e.replicas))
		}
		rs.unitIdx = uint8(len(e.replicas)) // attach order = unit index
	}
	if e.retry.Timeout > 0 {
		if rt, ok := rc.(requestTimeouter); ok {
			rt.SetRequestTimeout(e.retry.Timeout)
		}
	}
	if e.cfg.DedupeEntries != 0 {
		rs.dedupe = dedupe.New(e.cfg.DedupeEntries)
	}
	e.replicas = append(e.replicas, rs)
	rs.pipes = make([]*pipe, len(e.shards))
	for i, s := range e.shards {
		p := &pipe{
			rs:    rs,
			shard: s,
			queue: make(chan repMsg, e.cfg.QueueDepth),
			dirty: newDirtyMap(),
		}
		rs.pipes[i] = p
		s.mu.Lock()
		s.pipes = append(s.pipes, p)
		s.mu.Unlock()
		e.shippers.Add(1)
		go e.shipper(p)
	}
	return nil
}

// Degraded reports whether any attached replica has exhausted its
// retry budget and been taken out of the ship path. Writes still
// succeed locally; the dropped-frame gap is visible in
// Traffic().Snapshot().ReplicaLag and per replica in ReplicaStats.
func (e *Engine) Degraded() bool {
	for _, rs := range e.replicas {
		if rs.degraded.Load() {
			return true
		}
	}
	return false
}

// ReplicaLag returns the largest number of frames any degraded replica
// is behind the primary — zero when all replicas are healthy. The
// Traffic snapshot's ReplicaLag gauge reports the same maximum.
func (e *Engine) ReplicaLag() int64 {
	var lag int64
	for _, rs := range e.replicas {
		if d := rs.m.Lag(); d > lag {
			lag = d
		}
	}
	return lag
}

// ReplicaStat describes one attached replica's pipeline health.
type ReplicaStat struct {
	Degraded bool
	Metrics  metrics.ReplicaSnapshot
}

// ReplicaStats returns a point-in-time snapshot of every attached
// replica's pipeline, in attach order. The engine-wide Traffic view
// aggregates the same counters across replicas.
func (e *Engine) ReplicaStats() []ReplicaStat {
	out := make([]ReplicaStat, len(e.replicas))
	for i, rs := range e.replicas {
		out[i] = ReplicaStat{Degraded: rs.degraded.Load(), Metrics: rs.m.Snapshot()}
	}
	return out
}

// DirtyRanges returns the merged runs of LBAs replica i (attach order)
// is not known to hold correctly — frames dropped while degraded,
// deliveries that failed past the retry budget, and applies the
// replica refused as diverged — aggregated across every shard. A
// ranged resync over exactly these runs (resync.RunRanges) heals the
// replica without scanning the device; clear the map afterwards with
// ClearDirty.
func (e *Engine) DirtyRanges(i int) []block.Range {
	if i < 0 || i >= len(e.replicas) {
		return nil
	}
	var all []block.Range
	for _, p := range e.replicas[i].pipes {
		all = append(all, p.dirty.ranges()...)
	}
	return block.NormalizeRanges(all, e.local.NumBlocks())
}

// ShardDirtyRanges returns replica i's dirty runs restricted to shard
// s — the unit a per-shard ranged resync repairs.
func (e *Engine) ShardDirtyRanges(i, s int) []block.Range {
	if i < 0 || i >= len(e.replicas) || s < 0 || s >= len(e.shards) {
		return nil
	}
	return e.replicas[i].pipes[s].dirty.ranges()
}

// DirtyBlocks returns how many LBAs replica i has dirty across all
// shards.
func (e *Engine) DirtyBlocks(i int) uint64 {
	if i < 0 || i >= len(e.replicas) {
		return 0
	}
	var total uint64
	for _, p := range e.replicas[i].pipes {
		total += p.dirty.count()
	}
	return total
}

// ClearDirty forgets the given runs from replica i's dirty maps — call
// it after a ranged resync repaired them. With no runs it forgets
// everything.
func (e *Engine) ClearDirty(i int, ranges ...block.Range) {
	if i < 0 || i >= len(e.replicas) {
		return
	}
	for _, p := range e.replicas[i].pipes {
		p.dirty.clear(ranges)
	}
}

// ClearDegraded reinstates every degraded replica, zeroes the lag
// gauges, and forgets any sticky replication error a previous Drain
// reported — after the recovery lifecycle completes, the engine
// reports healthy again. Call it only after the gap has been healed —
// quiesce writes (Drain), run a resync against each degraded replica,
// then clear; clearing with writes in flight or an unhealed replica
// re-ships new parities on top of stale blocks and silently corrupts
// the copy.
func (e *Engine) ClearDegraded() {
	for _, rs := range e.replicas {
		rs.degraded.Store(false)
		rs.m.ResetLag()
		rs.clearErr()
	}
	e.traffic.ResetReplicaLag()
}

// ReplicaDedupe returns replica i's primary-side dedupe index, or nil
// when the fast path is off (DedupeEntries unset). Resync warms it through this handle: a block
// confirmed equal or repaired is content the replica provably holds.
func (e *Engine) ReplicaDedupe(i int) *dedupe.Index {
	if i < 0 || i >= len(e.replicas) {
		return nil
	}
	return e.replicas[i].dedupe
}

// Traffic returns the engine's traffic counters.
func (e *Engine) Traffic() *metrics.Traffic { return e.traffic }

// Density returns the change-density statistics (populated only when
// Config.RecordDensity is set and the mode computes parity).
func (e *Engine) Density() *parity.DensityStats { return e.density }

// Mode returns the configured replication mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// ReadBlock implements block.Store by delegating to local storage.
func (e *Engine) ReadBlock(lba uint64, buf []byte) error {
	return e.local.ReadBlock(lba, buf)
}

// BlockSize implements block.Store.
func (e *Engine) BlockSize() int { return e.local.BlockSize() }

// NumBlocks implements block.Store.
func (e *Engine) NumBlocks() uint64 { return e.local.NumBlocks() }

// WriteBlock implements block.Store: local write plus replication.
//
// The shard lock covers the local apply and the enqueue onto every
// pipeline of that shard — frames must enter each queue in sequence
// order, or two racing writers could deliver same-LBA updates to a
// replica out of order — but never a network round trip, and never
// another shard's writes. A full queue blocks the enqueue, which then
// (deliberately) throttles that shard's writers: the paper's bounded
// queue, now one per (shard, replica). In synchronous mode the write
// then waits, outside the lock, for every replica's ack, so concurrent
// writers overlap their fan-out waits instead of serializing WAN round
// trips behind a lock.
func (e *Engine) WriteBlock(lba uint64, data []byte) error {
	s := e.shardOf(lba)
	if e.rsCodec != nil {
		return e.writeStriped(s, lba, data)
	}
	if e.cfg.FlushWindow > 0 {
		return e.writeGrouped(s, lba, data)
	}
	s.mu.Lock()
	if e.closed.Load() {
		s.mu.Unlock()
		return ErrEngineClosed
	}

	fb, err := e.applyLocal(s, lba, data)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if fb == nil { // unchanged block elided
		s.mu.Unlock()
		return nil
	}
	s.seq++
	seq := s.seq
	var hash uint64
	if !e.cfg.DisableVerify {
		// The decoded new block at the replica must equal data in every
		// mode (PRINS recovers it as P' XOR A_old), so the hash of data
		// is the contract the replica verifies before writing in place.
		hash = iscsi.HashBlock(data)
	}

	n := len(s.pipes)
	if n == 0 {
		s.mu.Unlock()
		framePool.Put(fb)
		return nil
	}
	fb.refs.Store(int32(n))
	var ack chan error
	if !e.cfg.Async {
		ack = make(chan error, n)
	}
	enqueued := 0
	for _, p := range s.pipes {
		p.rs.pending.Add(1)
		//lint:ignore hold-blocking bounded backpressure: a full replication queue must stall writers on this shard
		select {
		case p.queue <- repMsg{seq: seq, lba: lba, hash: hash, frame: fb, ack: ack}:
			enqueued++
		case <-e.done:
			p.rs.pending.Done()
			fb.release(int32(n - enqueued))
			s.mu.Unlock()
			return ErrEngineClosed
		}
	}
	s.mu.Unlock()

	if ack == nil {
		return nil
	}
	var firstErr error
	for i := 0; i < n; i++ {
		if err := <-ack; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Group returns the replica-group configuration (zero when mirroring).
func (e *Engine) Group() GroupConfig { return e.cfg.Group }

// GroupUnitSize returns the stripe unit size in bytes, or zero when
// the engine mirrors. Each attached replica's store must use it as its
// block size: a replica in a k-of-n group holds one unit per primary
// block, not the block.
func (e *Engine) GroupUnitSize() int {
	if e.rsCodec == nil {
		return 0
	}
	return e.rsCodec.UnitSize(e.local.BlockSize())
}

// unitCodecs returns the candidate codecs for stripe unit frames,
// mirroring applyLocal's per-mode framing: raw for Traditional, flate
// for Compressed, the configured parity codecs for PRINS (where a
// quiet region of the delta stripes into near-zero units that ZRL
// collapses).
func (e *Engine) unitCodecs() []xcode.Codec {
	switch e.cfg.Mode {
	case ModeTraditional:
		return unitRawCodecs
	case ModeCompressed:
		return unitFlateCodecs
	default:
		return e.cfg.Codecs
	}
}

var (
	unitRawCodecs   = []xcode.Codec{xcode.CodecRaw}
	unitFlateCodecs = []xcode.Codec{xcode.CodecFlate}
)

// holdUnitFrame takes ownership of an encoded unit frame into the
// shard's group scratch slot i. The caller must, before releasing
// s.mu, either enqueue every held frame to its pipe or release it.
func (s *shard) holdUnitFrame(i int, fb *frameBuf) { s.gFrame[i] = fb }

// writeStriped is the GroupMode write path: the local apply is the
// same as mirroring, but what ships is n unit frames — the block (or
// its PRINS delta) RS-striped k-of-n — one to each replica's pipeline,
// each in its own refcounted buffer since every unit's bytes differ.
// A synchronous write then waits at the quorum, not the fan-out: it
// succeeds once any k units acknowledge durably applied, and fails
// only when more than n-k units failed — at which point no k-survivor
// subset can ever reconstruct this write. Units that settle after the
// quorum returned surface through the usual channels (dirty maps, lag
// gauges, degraded flags), exactly like mirror-mode stragglers.
func (e *Engine) writeStriped(s *shard, lba uint64, data []byte) error {
	k, n := e.cfg.Group.K, e.cfg.Group.N
	s.mu.Lock()
	if e.closed.Load() {
		s.mu.Unlock()
		return ErrEngineClosed
	}
	if len(s.pipes) != n {
		s.mu.Unlock()
		return fmt.Errorf("%w: have %d, group is n=%d", ErrGroupReplicas, len(s.pipes), n)
	}
	src, err := e.applySource(s, lba, data)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if src == nil { // unchanged block elided
		s.mu.Unlock()
		return nil
	}
	start := time.Now()
	if err := e.rsCodec.EncodeInto(s.gUnits, src); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("core: stripe encode: %w", err)
	}
	// The replica verifies the NEW unit it recovers. For PRINS the
	// shipped payload is RS of the delta, and by linearity the new unit
	// is RS of the new data — encode it once more just for the hashes.
	// Trad/Compressed ship the new units themselves.
	hashUnits := s.gUnits
	if !e.cfg.DisableVerify && e.cfg.Mode == ModePRINS {
		if err := e.rsCodec.EncodeInto(s.gNew, data); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("core: stripe encode: %w", err)
		}
		hashUnits = s.gNew
	}
	codecs := e.unitCodecs()
	for i := 0; i < n; i++ {
		fb := getFrame()
		buf, encErr := xcode.AppendEncodeBest(fb.buf, s.gUnits[i], codecs...)
		if encErr != nil {
			framePool.Put(fb)
			for j := 0; j < i; j++ {
				s.gFrame[j].release(1)
			}
			s.mu.Unlock()
			return fmt.Errorf("core: encode unit %d: %w", i, encErr)
		}
		fb.buf = buf
		fb.refs.Store(1) // each unit frame is owned by exactly one pipe
		s.holdUnitFrame(i, fb)
	}
	e.shardM.AddEncodeTime(int(s.id), time.Since(start))
	s.seq++
	seq := s.seq

	var ack chan error
	if !e.cfg.Async {
		ack = make(chan error, n)
	}
	for i, p := range s.pipes {
		var hash uint64
		if !e.cfg.DisableVerify {
			hash = iscsi.HashBlock(hashUnits[i])
		}
		p.rs.pending.Add(1)
		//lint:ignore hold-blocking bounded backpressure: a full replication queue must stall writers on this shard
		select {
		case p.queue <- repMsg{seq: seq, lba: lba, hash: hash, frame: s.gFrame[i], ack: ack, unit: true}:
		case <-e.done:
			p.rs.pending.Done()
			for j := i; j < n; j++ {
				s.gFrame[j].release(1)
			}
			s.mu.Unlock()
			return ErrEngineClosed
		}
	}
	s.mu.Unlock()

	if ack == nil {
		return nil
	}
	// Quorum commit: success at the k-th durable unit; failure once
	// more than n-k units are lost (dropped, diverged, or undeliverable
	// — see finishUnit for why those settle as errors here). Acks that
	// arrive after this returns land in the buffered channel and are
	// collected with it; their delivery state already lives in the
	// dirty maps and lag gauges.
	var firstErr error
	oks, fails := 0, 0
	for i := 0; i < n; i++ {
		err := <-ack
		if err == nil {
			if oks++; oks >= k {
				return nil
			}
			continue
		}
		if firstErr == nil {
			firstErr = err
		}
		if fails++; fails > n-k {
			return fmt.Errorf("core: stripe quorum %d/%d lost at lba %d: %w", k, n, lba, firstErr)
		}
	}
	return firstErr // unreachable: a branch above always returns first
}

// applySource performs the local write and returns the bytes a
// replica push encodes — the forward parity in ModePRINS, the new data
// otherwise — or nil when the write is elided (SkipUnchanged and
// nothing changed). Called with s.mu held; the returned slice aliases
// shard scratch (or the caller's data) and is valid until the lock is
// released. The mirror path encodes it whole (applyLocal), GroupMode
// RS-stripes it first (writeStriped).
func (e *Engine) applySource(s *shard, lba uint64, data []byte) ([]byte, error) {
	bs := e.local.BlockSize()
	if len(data) != bs {
		return nil, fmt.Errorf("%w: %d != %d", block.ErrBadBufSize, len(data), bs)
	}
	// Hot-path counters live in the shard's own cache-line-sized bank;
	// Traffic folds the banks into its totals on Snapshot, so the write
	// path never touches a cache line shared with another shard.
	e.shardM.AddWrite(int(s.id), bs)
	switch e.cfg.Mode {
	case ModeTraditional, ModeCompressed:
		if err := e.local.WriteBlock(lba, data); err != nil {
			return nil, err
		}
		return data, nil

	case ModePRINS:
		start := time.Now()
		fp := s.fpBuf
		// nz is the parity's non-zero byte count when a consumer needs
		// it (density recording or skip detection); -1 otherwise.
		nz := -1
		wantNZ := e.cfg.RecordDensity || e.cfg.SkipUnchanged
		if e.pw != nil {
			// RAID fast path: the array hands us P' it computed anyway.
			// The array's parity buffer is shared, so the call serializes
			// across shards and the result is copied into the shard's own
			// scratch before the lock is released.
			e.pwMu.Lock()
			res, err := e.pw.WriteBlockWithParity(lba, data)
			if err != nil {
				e.pwMu.Unlock()
				return nil, err
			}
			copy(fp, res)
			e.pwMu.Unlock()
			if wantNZ {
				nz = parity.NonZeroBytes(fp)
			}
		} else {
			if err := e.local.ReadBlock(lba, s.oldBuf); err != nil {
				return nil, fmt.Errorf("core: read pre-image: %w", err)
			}
			if wantNZ {
				// Fused kernel: the XOR and the non-zero scan share one
				// pass over the block, so density recording and
				// skip-unchanged detection cost no second walk.
				var err error
				if nz, err = parity.XORCountNonZero(fp, data, s.oldBuf); err != nil {
					return nil, err
				}
			} else if err := parity.ForwardInto(fp, data, s.oldBuf); err != nil {
				return nil, err
			}
			if err := e.local.WriteBlock(lba, data); err != nil {
				return nil, err
			}
		}
		if e.cfg.RecordDensity {
			e.density.Record(parity.Density{ChangedBytes: nz, BlockBytes: bs})
		}
		e.shardM.AddEncodeTime(int(s.id), time.Since(start))
		if e.cfg.SkipUnchanged && nz == 0 {
			e.shardM.AddSkipped(int(s.id))
			return nil, nil
		}
		return fp, nil

	default:
		return nil, fmt.Errorf("core: invalid mode %d", uint8(e.cfg.Mode))
	}
}

// writeGrouped is the group-commit write path (Config.FlushWindow >
// 0). The writer queues its request on the shard; the first writer of
// a window becomes the leader, waits — at most one flush window, less
// if the queue fills a whole chunk first — with no locks held, then
// commits everything queued meanwhile under a single shard-lock pass:
// one lock acquisition, one contiguous seq range, one metrics pass
// for the whole group instead of one per write.
// Followers block until the leader settles their request, then await
// their own replica acks exactly like the ungrouped path, so sync-mode
// semantics (write returns once every replica acknowledged) are
// preserved.
func (e *Engine) writeGrouped(s *shard, lba uint64, data []byte) error {
	req := &gcReq{lba: lba, data: data, done: make(chan struct{})}
	s.gcMu.Lock()
	if e.closed.Load() {
		s.gcMu.Unlock()
		return ErrEngineClosed
	}
	s.gcQueue = append(s.gcQueue, req)
	leader := !s.gcLeader
	if leader {
		s.gcLeader = true
	} else if len(s.gcQueue) >= e.cfg.FlushFrames {
		// The queue just filled a whole flush chunk: wake the leader
		// now rather than letting it sleep out the rest of the window.
		select {
		case s.gcWake <- struct{}{}:
		default:
		}
	}
	s.gcMu.Unlock()

	if leader {
		timer := time.NewTimer(e.cfg.FlushWindow)
		select {
		case <-timer.C:
		case <-s.gcWake:
			timer.Stop()
		}
		s.gcMu.Lock()
		batch := s.gcQueue
		s.gcQueue = nil
		s.gcLeader = false
		// Drop any wake token that raced with the timer so it cannot
		// cut the next window short.
		select {
		case <-s.gcWake:
		default:
		}
		s.gcMu.Unlock()
		e.commitGroup(s, batch)
	}

	<-req.done
	if req.err != nil {
		return req.err
	}
	var firstErr error
	for i := 0; i < req.n; i++ {
		if err := <-req.ack; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// commitGroup commits one drained group-commit batch in chunks of at
// most FlushFrames, so the shard lock is never held across an
// unbounded backlog.
func (e *Engine) commitGroup(s *shard, batch []*gcReq) {
	e.traffic.AddGroupCommit(len(batch))
	for len(batch) > 0 {
		chunk := batch
		if len(chunk) > e.cfg.FlushFrames {
			chunk = batch[:e.cfg.FlushFrames]
		}
		batch = batch[len(chunk):]
		e.commitChunk(s, chunk)
	}
}

// commitChunk applies and enqueues one chunk of grouped writes under a
// single s.mu acquisition: every request's local apply, its slot in
// the shard's contiguous seq range, and its fan-out onto the shard's
// pipelines happen in one critical section. Requests are settled
// (done closed) only after the lock is released.
func (e *Engine) commitChunk(s *shard, chunk []*gcReq) {
	s.mu.Lock()
	if e.closed.Load() {
		s.mu.Unlock()
		for _, r := range chunk {
			r.err = ErrEngineClosed
			close(r.done)
		}
		return
	}
	n := len(s.pipes)
	closing := false
	for _, r := range chunk {
		if closing {
			r.err = ErrEngineClosed
			continue
		}
		fb, err := e.applyLocal(s, r.lba, r.data)
		if err != nil {
			r.err = err
			continue
		}
		if fb == nil { // unchanged block elided
			continue
		}
		s.seq++
		seq := s.seq
		var hash uint64
		if !e.cfg.DisableVerify {
			hash = iscsi.HashBlock(r.data)
		}
		if n == 0 {
			framePool.Put(fb)
			continue
		}
		fb.refs.Store(int32(n))
		if !e.cfg.Async {
			r.ack = make(chan error, n)
			r.n = n
		}
		enqueued := 0
		for _, p := range s.pipes {
			p.rs.pending.Add(1)
			//lint:ignore hold-blocking bounded backpressure: a full replication queue must stall writers on this shard
			select {
			case p.queue <- repMsg{seq: seq, lba: r.lba, hash: hash, frame: fb, ack: r.ack}:
				enqueued++
			case <-e.done:
				p.rs.pending.Done()
				fb.release(int32(n - enqueued))
				r.err = ErrEngineClosed
				r.ack = nil
				r.n = 0
				closing = true
			}
			if closing {
				break
			}
		}
	}
	s.mu.Unlock()
	for _, r := range chunk {
		close(r.done)
	}
}

// applyLocal performs the local write and produces the encoded frame
// to replicate in a pooled buffer, or nil if the write needs no
// replication. Called with s.mu held; scratch buffers are the shard's
// own.
func (e *Engine) applyLocal(s *shard, lba uint64, data []byte) (*frameBuf, error) {
	src, err := e.applySource(s, lba, data)
	if err != nil || src == nil {
		return nil, err
	}
	start := time.Now()
	fb := getFrame()
	var buf []byte
	switch e.cfg.Mode {
	case ModeTraditional:
		buf, err = xcode.AppendEncode(fb.buf, xcode.CodecRaw, src)
	case ModeCompressed:
		buf, err = xcode.AppendEncode(fb.buf, xcode.CodecFlate, src)
	default:
		buf, err = xcode.AppendEncodeBest(fb.buf, src, e.cfg.Codecs...)
	}
	e.shardM.AddEncodeTime(int(s.id), time.Since(start))
	if err != nil {
		framePool.Put(fb)
		return nil, fmt.Errorf("core: encode: %w", err)
	}
	fb.buf = buf
	return fb, nil
}

// Drain blocks until every replica pipeline has shipped its queued
// frames and returns the first sticky replication error observed so
// far (async mode reports errors here rather than on the triggering
// write). A sticky error persists across Drains until the recovery
// lifecycle completes: ClearDegraded forgets it once the replica has
// been healed.
func (e *Engine) Drain() error {
	// Every enqueue counts itself pending under its shard lock; cycling
	// the locks orders those counts before the waits below, including
	// for writes whose caller learned of completion only over the
	// network (a target session), which the memory model cannot see.
	for _, s := range e.shards {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty section is the barrier
	}
	for _, rs := range e.replicas {
		rs.pending.Wait()
	}
	for _, rs := range e.replicas {
		if err := rs.firstErr(); err != nil {
			return err
		}
	}
	return nil
}

// Close drains outstanding replication, stops the replica pipelines,
// and closes nothing else: the caller owns the local store and replica
// clients.
func (e *Engine) Close() error {
	if e.closed.Swap(true) {
		return nil
	}
	// Barrier: once every shard lock has been cycled, no writer is
	// still inside a critical section entered before closed was set,
	// and every later writer observes it.
	for _, s := range e.shards {
		s.mu.Lock()
		s.mu.Unlock() //nolint:staticcheck // empty section is the barrier
	}
	for _, rs := range e.replicas {
		rs.pending.Wait()
	}
	close(e.done)
	e.shippers.Wait()
	return nil
}

// Geometry implements iscsi.Backend so a primary node can export the
// engine directly through a target.
func (e *Engine) Geometry() (int, uint64) {
	return e.local.BlockSize(), e.local.NumBlocks()
}

// HandleRead implements iscsi.Backend.
func (e *Engine) HandleRead(lba uint64, blocks uint32, dst []byte) ([]byte, iscsi.Status) {
	out, err := block.AppendBlocks(dst, e.local, lba, blocks)
	if err != nil {
		return nil, statusOf(err)
	}
	return out, iscsi.StatusOK
}

// HandleWrite implements iscsi.Backend: writes arriving over the wire
// from application initiators go through the replicating write path.
func (e *Engine) HandleWrite(lba uint64, data []byte) iscsi.Status {
	bs := e.local.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return iscsi.StatusBadRequest
	}
	for i := 0; i*bs < len(data); i++ {
		if err := e.WriteBlock(lba+uint64(i), data[i*bs:(i+1)*bs]); err != nil {
			return statusOf(err)
		}
	}
	return iscsi.StatusOK
}

// HandlePush implements iscsi.Backend. A primary engine does not
// accept pushes; use ReplicaEngine on replica nodes.
func (e *Engine) HandlePush(_ iscsi.PushHeader, entries []iscsi.BatchEntry) []iscsi.Status {
	return iscsi.Refuse(len(entries), iscsi.StatusBadRequest)
}

// statusOf maps an apply/store error to its wire status. The typed
// replica-apply failures (diverged, decode, store) travel as distinct
// statuses so the initiator can rebuild the same sentinel on its side
// and the primary can tell detected corruption from transport loss.
func statusOf(err error) iscsi.Status {
	switch {
	case errors.Is(err, iscsi.ErrDiverged):
		return iscsi.StatusDiverged
	case errors.Is(err, iscsi.ErrReplicaDecode):
		return iscsi.StatusDecodeError
	case errors.Is(err, block.ErrOutOfRange):
		return iscsi.StatusOutOfRange
	case errors.Is(err, block.ErrBadBufSize):
		return iscsi.StatusBadRequest
	case errors.Is(err, iscsi.ErrReplicaStore):
		return iscsi.StatusStoreError
	default:
		return iscsi.StatusError
	}
}
