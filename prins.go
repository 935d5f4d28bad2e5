package prins

import (
	"errors"
	"fmt"
	"net"
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/repair"
	"prins/internal/resync"
	"prins/internal/xcode"
)

// Store is a fixed-geometry block device addressed by logical block
// address. All library storage plugs in through this interface.
type Store interface {
	// ReadBlock fills buf (exactly BlockSize bytes) from block lba.
	ReadBlock(lba uint64, buf []byte) error
	// WriteBlock replaces block lba with data (exactly BlockSize bytes).
	WriteBlock(lba uint64, data []byte) error
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// Close releases the device.
	Close() error
}

// NewMemStore allocates a dense in-memory block device.
func NewMemStore(blockSize int, numBlocks uint64) (Store, error) {
	return block.NewMem(blockSize, numBlocks)
}

// NewSparseStore allocates a thin-provisioned in-memory device that
// materializes only written blocks.
func NewSparseStore(blockSize int, numBlocks uint64) (Store, error) {
	return block.NewSparse(blockSize, numBlocks)
}

// NewFileStore creates (or truncates) a file-backed block device.
func NewFileStore(path string, blockSize int, numBlocks uint64) (Store, error) {
	return block.CreateFile(path, blockSize, numBlocks)
}

// OpenFileStore opens an existing file-backed device.
func OpenFileStore(path string, blockSize int) (Store, error) {
	return block.OpenFile(path, blockSize)
}

// Mode selects the replication technique.
type Mode uint8

// Replication modes, in the paper's presentation order.
const (
	// ModeTraditional ships every changed block whole.
	ModeTraditional = Mode(core.ModeTraditional)
	// ModeCompressed ships each changed block DEFLATE-compressed.
	ModeCompressed = Mode(core.ModeCompressed)
	// ModePRINS ships the zero-run-length-encoded forward parity.
	ModePRINS = Mode(core.ModePRINS)
)

// String returns the mode name.
func (m Mode) String() string { return core.Mode(m).String() }

// Config parameterizes a Primary.
type Config struct {
	// Mode is the replication technique. Required.
	Mode Mode
	// Async ships frames from per-replica pipeline workers (the paper's
	// PRINS-engine thread, one per replica); writes return after the
	// local write and enqueue. Errors surface on Drain. When false,
	// writes additionally wait for every replica's acknowledgement —
	// the deliveries still run in parallel, so sync write latency
	// tracks the slowest replica rather than the sum.
	Async bool
	// QueueDepth bounds each replica's ship queue (default 256).
	QueueDepth int
	// SkipUnchanged elides replication of writes that did not change
	// the block (PRINS mode only).
	SkipUnchanged bool
	// RecordDensity tracks per-write change density (PRINS mode only).
	RecordDensity bool
	// AggressiveEncoding additionally tries DEFLATE over the parity and
	// ships whichever frame is smaller, trading CPU for bytes.
	AggressiveEncoding bool

	// Shards splits the device into that many contiguous LBA ranges,
	// each with its own write lock, sequence space, dirty maps, and
	// per-replica ship pipelines, so concurrent writers to different
	// regions of the device never contend and their replication round
	// trips overlap. Same-LBA write ordering is preserved (an LBA
	// always maps to the same shard). Zero or one keeps the classic
	// single-lock engine and a wire format identical to pre-sharding
	// peers; maximum 256.
	Shards int

	// BatchFrames caps how many queued frames a replica pipeline worker
	// drains into one wire-level batch. Batching is opportunistic: a
	// worker never waits for a batch to fill, it just takes whatever has
	// queued behind the frame in hand, so an idle pipeline still ships
	// every write immediately. Zero selects the default (32); 1 disables
	// batching and every push carries one frame.
	BatchFrames int
	// BatchBytes soft-caps the encoded payload of one batch: draining
	// stops once the batch reaches this many frame bytes. Zero selects
	// the default (1 MiB).
	BatchBytes int

	// FlushWindow enables primary-side group commit: writers landing on
	// the same shard are drained as one unit — one shard-lock pass
	// covers every queued write's local apply, sequence allocation, and
	// pipeline enqueue. The first writer of a window leads; it waits
	// until the window elapses or the queue fills a whole FlushFrames
	// chunk, whichever comes first, then commits the group. Per-write
	// latency is bounded by the window plus the commit. Zero (the
	// default) keeps the per-write path.
	FlushWindow time.Duration
	// FlushFrames caps how many grouped writes one flush commits per
	// shard-lock pass and doubles as the early-flush trigger (a queue
	// that fills to FlushFrames commits without waiting out the
	// window). Zero selects the default (64). Ignored unless
	// FlushWindow is set.
	FlushFrames int

	// RetryAttempts is how many times a replication push is tried before
	// the engine gives up on it (default 1 = no retry).
	RetryAttempts int
	// RetryTimeout bounds each push attempt; zero means no deadline.
	RetryTimeout time.Duration
	// RetryBackoff is the base delay between attempts, doubled each
	// retry with jitter; zero retries immediately.
	RetryBackoff time.Duration
	// AllowDegraded keeps writes succeeding locally when a replica
	// exhausts its retry budget: the replica is marked degraded and
	// subsequent frames to it are dropped and counted rather than
	// failing the write. Recover with Drain, a resync against the
	// replica, then ClearDegraded. When false (default), a failed push
	// fails the write (sync) or surfaces on Drain (async).
	AllowDegraded bool
	// DisableVerify turns off end-to-end verification of replica
	// applies. By default every push carries the content hash of the
	// new block and a replica refuses an apply whose recovered block
	// does not match; the primary marks the block dirty and repairs it
	// with an incremental resync (see DirtyRanges).
	DisableVerify bool

	// DedupeEntries enables content-addressed dedupe on the ship path:
	// the primary tracks which (lba, content hash) pairs each replica
	// provably holds, and when a queued frame's content is already
	// present on the replica it ships a 28-byte by-ref entry instead of
	// the parity frame. The replica materializes the block by local copy
	// after re-hashing the source, and answers REF-MISS when it cannot —
	// the primary then transparently re-ships the frame by value, so
	// dedupe never affects correctness, only bytes. DedupeEntries bounds
	// the per-replica index (LRU beyond it); zero disables dedupe,
	// negative selects a default bound. NewPrimary refuses it together
	// with DisableVerify (no content hashes to address by) and in group
	// mode (stripe units are not whole blocks).
	DedupeEntries int

	// GroupK and GroupN (both set) turn the replica set into an
	// erasure-coded group: every write is Reed-Solomon striped into
	// GroupN unit frames of which any GroupK reconstruct the block,
	// and a synchronous write commits once any GroupK units are
	// acknowledged (quorum commit). Attach exactly GroupN replicas, in
	// unit-index order; each must be a unit-sized device (block size
	// GroupUnitSize, not the primary's block size) whose replica
	// engine was told its unit index (Replica.SetGroupUnit). The group
	// survives GroupN-GroupK replica losses: reads reconstruct from
	// any GroupK survivors and a lost unit is rebuilt with a
	// bandwidth-efficient pipelined repair chain (internal/repair).
	// Zero GroupN keeps classic full-copy mirroring. Incompatible with
	// FlushWindow.
	GroupK int
	GroupN int
}

// Stats is a point-in-time snapshot of a Primary's replication
// counters.
type Stats struct {
	// Writes is the number of block writes intercepted.
	Writes int64
	// Replicated is the number of frames shipped (writes x replicas).
	Replicated int64
	// Skipped counts writes elided because nothing changed.
	Skipped int64
	// PayloadBytes is the total encoded payload shipped.
	PayloadBytes int64
	// WireBytes models on-the-wire bytes (payload + packet headers).
	WireBytes int64
	// RawBytes is what traditional replication would have shipped.
	RawBytes int64
	// EncodeTime is the cumulative primary-side compute time.
	EncodeTime time.Duration
	// MeanPayload is the average frame payload in bytes.
	MeanPayload float64
	// SavingsVsRaw is RawBytes / PayloadBytes.
	SavingsVsRaw float64
	// MeanChangedFraction is the mean fraction of each block changed
	// per write (only populated with Config.RecordDensity).
	MeanChangedFraction float64
	// Retries counts replication push attempts beyond the first.
	Retries int64
	// Dropped counts frames abandoned because a replica was degraded.
	Dropped int64
	// Diverged counts applies a replica refused because the recovered
	// block failed hash verification (detected corruption).
	Diverged int64
	// Batches counts multi-frame batch deliveries.
	Batches int64
	// CoalescedFrames counts frames merged away by same-LBA parity
	// coalescing before shipping.
	CoalescedFrames int64
	// BatchSavedWireBytes is the modeled wire bytes saved by batching:
	// what the batched frames would have cost as single pushes minus
	// what their batches cost.
	BatchSavedWireBytes int64
	// DedupeHits counts frames delivered by reference: the replica held
	// the content already and the wire carried a 28-byte entry instead
	// of the frame (requires Config.DedupeEntries).
	DedupeHits int64
	// DedupeMisses counts by-ref attempts the replica refused with
	// REF-MISS, forcing a by-value re-ship.
	DedupeMisses int64
	// DedupeSavedWireBytes is the net data-segment bytes dedupe saved:
	// frame bytes elided by delivered by-ref entries minus the overhead
	// of refused attempts. Only delivered writes are credited; a miss
	// storm can drive it negative.
	DedupeSavedWireBytes int64
}

// Primary is the primary-side replication engine over a local Store.
// It implements Store itself: reads and writes go to local storage,
// and writes additionally replicate to every attached replica.
type Primary struct {
	engine    *core.Engine
	target    *iscsi.Target
	conns     []*iscsi.Initiator
	resilient []*resync.ResilientClient
	scrubs    []*scrubSession
}

// scrubSession pairs a background scrubber with the dedicated replica
// session it audits over.
type scrubSession struct {
	conn *iscsi.Initiator
	s    *resync.Scrubber
}

var _ Store = (*Primary)(nil)

// NewPrimary wraps local with a replication engine.
func NewPrimary(local Store, cfg Config) (*Primary, error) {
	codecs := []xcode.Codec{xcode.CodecZRL}
	if cfg.AggressiveEncoding {
		codecs = append(codecs, xcode.CodecZRLFlate)
	}
	engine, err := core.NewEngine(local, core.Config{
		Mode:          core.Mode(cfg.Mode),
		Codecs:        codecs,
		Async:         cfg.Async,
		QueueDepth:    cfg.QueueDepth,
		SkipUnchanged: cfg.SkipUnchanged,
		RecordDensity: cfg.RecordDensity,
		Retry: core.RetryPolicy{
			Attempts: cfg.RetryAttempts,
			Timeout:  cfg.RetryTimeout,
			Backoff:  cfg.RetryBackoff,
		},
		AllowDegraded: cfg.AllowDegraded,
		DisableVerify: cfg.DisableVerify,
		DedupeEntries: cfg.DedupeEntries,
		BatchFrames:   cfg.BatchFrames,
		BatchBytes:    cfg.BatchBytes,
		Shards:        cfg.Shards,
		FlushWindow:   cfg.FlushWindow,
		FlushFrames:   cfg.FlushFrames,
		Group:         core.GroupConfig{K: cfg.GroupK, N: cfg.GroupN},
	})
	if err != nil {
		return nil, err
	}
	return &Primary{engine: engine}, nil
}

// AttachReplicaAddr connects to a replica node serving exportName at
// addr and replicates to it from now on. Call before serving writes.
func (p *Primary) AttachReplicaAddr(addr, exportName string) error {
	init, err := iscsi.Dial(addr)
	if err != nil {
		return err
	}
	if err := init.Login(exportName); err != nil {
		_ = init.Close()
		return err
	}
	bs, nb := p.engine.Geometry()
	// A group member stores stripe units, not whole blocks: its block
	// size must match the unit size, one unit block per logical block.
	if u := p.engine.GroupUnitSize(); u > 0 {
		bs = u
	}
	if init.BlockSize() != bs || init.NumBlocks() < nb {
		_ = init.Close()
		return fmt.Errorf("prins: replica %s geometry %dx%d incompatible with primary %dx%d",
			addr, init.NumBlocks(), init.BlockSize(), nb, bs)
	}
	if err := p.engine.AttachReplica(init); err != nil {
		_ = init.Close()
		return err
	}
	p.conns = append(p.conns, init)
	return nil
}

// AttachReplica attaches an in-process replica.
func (p *Primary) AttachReplica(r *Replica) error {
	return p.engine.AttachReplica(&core.Loopback{Replica: r.engine})
}

// AttachReplicaResilient connects to a replica like AttachReplicaAddr
// but survives session loss: on a failed push it reconnects, runs a
// hash-based delta resync to heal the writes lost while disconnected,
// and resumes; a block the replica refuses as diverged is repaired in
// place with a ranged resync. Batching and dedupe work as on any
// other replica. Use it when the WAN is expected to flap.
func (p *Primary) AttachReplicaResilient(addr, exportName string) error {
	rc, err := resync.NewResilientClient(p.engine, addr, exportName)
	if err != nil {
		return err
	}
	if err := p.engine.AttachReplica(rc); err != nil {
		_ = rc.Close()
		return err
	}
	p.resilient = append(p.resilient, rc)
	return nil
}

// InitialSync copies the primary's current contents to a replica over
// its device interface, establishing the A_old state PRINS requires.
func (p *Primary) InitialSync(r *Replica) error {
	return block.Copy(r.engine.Store(), p.engine)
}

// ReadBlock implements Store.
func (p *Primary) ReadBlock(lba uint64, buf []byte) error {
	return p.engine.ReadBlock(lba, buf)
}

// WriteBlock implements Store: local write plus replication.
func (p *Primary) WriteBlock(lba uint64, data []byte) error {
	return p.engine.WriteBlock(lba, data)
}

// BlockSize implements Store.
func (p *Primary) BlockSize() int { return p.engine.BlockSize() }

// NumBlocks implements Store.
func (p *Primary) NumBlocks() uint64 { return p.engine.NumBlocks() }

// Serve exports the primary device over TCP so applications can mount
// it with Dial. Returns the bound address.
func (p *Primary) Serve(addr, exportName string) (net.Addr, error) {
	if p.target == nil {
		p.target = iscsi.NewTarget()
	}
	p.target.Export(exportName, p.engine)
	return p.target.Listen(addr)
}

// Drain blocks until all queued replication has shipped and reports
// the first asynchronous replication error.
func (p *Primary) Drain() error { return p.engine.Drain() }

// Degraded reports whether any attached replica has been dropped from
// live replication after exhausting its retry budget (requires
// Config.AllowDegraded).
func (p *Primary) Degraded() bool { return p.engine.Degraded() }

// ReplicaLag returns the largest number of frames dropped for any
// degraded replica — how far behind the worst replica is.
func (p *Primary) ReplicaLag() int64 { return p.engine.ReplicaLag() }

// Range is a contiguous run of blocks [Start, Start+Count).
type Range struct {
	Start uint64
	Count uint64
}

// DirtyRanges returns the merged runs of blocks replica i (attach
// order) is not known to hold correctly — dropped while degraded,
// failed past the retry budget, or refused as diverged. Repair them
// with ResyncRanges and then forget them with ClearDirty.
func (p *Primary) DirtyRanges(i int) []Range {
	rs := p.engine.DirtyRanges(i)
	out := make([]Range, len(rs))
	for j, r := range rs {
		out[j] = Range{Start: r.Start, Count: r.Count}
	}
	return out
}

// ClearDirty forgets the given dirty runs of replica i after they have
// been repaired; with no runs it forgets all of them.
func (p *Primary) ClearDirty(i int, ranges ...Range) {
	p.engine.ClearDirty(i, toBlockRanges(ranges)...)
}

// ResyncReplica heals replica i (attach order) over a dedicated
// session to its export: it compares per-block content hashes
// restricted to ranges (the whole device with none), rewrites
// differing blocks from the primary's authoritative store, and — when
// replica i runs a dedupe index (Config.DedupeEntries) — feeds every
// block the scan proved present back into that index. A degrade wipes
// the index (nothing about a dropped replica's content can be
// assumed), so resyncing through this method re-warms the
// ship-by-reference fast path as a free side effect of the comparison
// it does anyway. Quiesce writes first (Drain) and follow with
// ClearDirty / ClearDegraded as usual.
func (p *Primary) ResyncReplica(i int, addr, exportName string, ranges ...Range) (ResyncStats, error) {
	remote, err := iscsi.Dial(addr)
	if err != nil {
		return ResyncStats{}, err
	}
	defer remote.Close()
	if err := remote.Login(exportName); err != nil {
		return ResyncStats{}, err
	}
	cfg := resync.Config{}
	if idx := p.engine.ReplicaDedupe(i); idx != nil {
		cfg.Learn = idx.Put
	}
	var s resync.Stats
	if len(ranges) == 0 {
		s, err = resync.Run(p.engine, remote, cfg)
	} else {
		s, err = resync.RunRanges(p.engine, remote, cfg, toBlockRanges(ranges)...)
	}
	if err != nil {
		return ResyncStats{}, err
	}
	return resyncStats(s), nil
}

// Shards returns how many LBA-range shards the primary's write path
// runs (see Config.Shards).
func (p *Primary) Shards() int { return p.engine.Shards() }

// ShardRange returns the LBA range shard s owns.
func (p *Primary) ShardRange(s int) Range {
	r := p.engine.ShardRange(s)
	return Range{Start: r.Start, Count: r.Count}
}

// ShardStat is a snapshot of one shard's write-path counters.
type ShardStat struct {
	// Writes is the number of block writes routed to this shard.
	Writes int64
	// Skipped counts writes the shard elided because nothing changed.
	Skipped int64
	// Shipped counts frames this shard's pipelines delivered across all
	// replicas.
	Shipped int64
	// Dropped counts frames this shard's pipelines elided while a
	// replica was degraded.
	Dropped int64
}

// ShardStats reports each shard's counters, indexed by shard id.
func (p *Primary) ShardStats() []ShardStat {
	snaps := p.engine.ShardStats()
	out := make([]ShardStat, len(snaps))
	for i, s := range snaps {
		out[i] = ShardStat{Writes: s.Writes, Skipped: s.Skipped, Shipped: s.Shipped, Dropped: s.Dropped}
	}
	return out
}

// ShardDirtyRanges returns replica i's dirty runs restricted to shard
// s — the unit a per-shard ranged resync repairs.
func (p *Primary) ShardDirtyRanges(i, s int) []Range {
	rs := p.engine.ShardDirtyRanges(i, s)
	out := make([]Range, len(rs))
	for j, r := range rs {
		out[j] = Range{Start: r.Start, Count: r.Count}
	}
	return out
}

func toBlockRanges(ranges []Range) []block.Range {
	out := make([]block.Range, len(ranges))
	for i, r := range ranges {
		out[i] = block.Range{Start: r.Start, Count: r.Count}
	}
	return out
}

// ScrubStats is a snapshot of one background scrubber's counters.
type ScrubStats struct {
	// Passes is how many full device scrubs have completed.
	Passes int64
	// Scanned is how many blocks have been hash-compared.
	Scanned int64
	// Diverged is how many blocks were found differing.
	Diverged int64
	// Repaired is how many diverged blocks were rewritten.
	Repaired int64
}

// StartScrub launches a background scrubber against the replica
// export at addr: every interval it walks the whole device comparing
// content hashes and rewrites any block that differs, pausing for
// pause between hash batches so the audit trickles along under live
// replication. The scrubber uses its own session and is stopped by
// Close.
func (p *Primary) StartScrub(addr, exportName string, interval, pause time.Duration) error {
	conn, err := iscsi.Dial(addr)
	if err != nil {
		return err
	}
	if err := conn.Login(exportName); err != nil {
		_ = conn.Close()
		return err
	}
	s := resync.NewScrubber(p.engine, conn, resync.Config{}, pause)
	s.Start(interval)
	p.scrubs = append(p.scrubs, &scrubSession{conn: conn, s: s})
	return nil
}

// ScrubStats reports each running scrubber's counters, in StartScrub
// order.
func (p *Primary) ScrubStats() []ScrubStats {
	out := make([]ScrubStats, len(p.scrubs))
	for i, sc := range p.scrubs {
		m := sc.s.Metrics()
		out[i] = ScrubStats{
			Passes:   m.Passes,
			Scanned:  m.Scanned,
			Diverged: m.Diverged,
			Repaired: m.Repaired,
		}
	}
	return out
}

// ClearDegraded re-admits all replicas to live replication, zeroes
// their lag, and forgets any sticky asynchronous delivery error so a
// healed Primary drains cleanly again. Call it only after quiescing
// writes (Drain) and healing each degraded replica with a resync;
// clearing a stale replica corrupts it in PRINS mode, which XORs
// against the replica's current content.
func (p *Primary) ClearDegraded() { p.engine.ClearDegraded() }

// Group returns the erasure-coded group shape, or (0, 0) when the
// primary mirrors full copies.
func (p *Primary) Group() (k, n int) {
	g := p.engine.Group()
	return g.K, g.N
}

// GroupUnitSize returns the stripe unit size group replicas must use
// as their block size, or zero when the primary mirrors.
func (p *Primary) GroupUnitSize() int { return p.engine.GroupUnitSize() }

// GroupMember names one group replica's export for repair.
type GroupMember struct {
	// Addr and Export locate the replica's served unit device.
	Addr   string
	Export string
	// Unit is the replica's stripe-unit index in [0, GroupN).
	Unit int
}

// RepairStats summarizes one pipelined group repair.
type RepairStats struct {
	// Chains counts chain rounds run.
	Chains int64
	// Blocks counts unit blocks rebuilt onto the replacement.
	Blocks uint64
	// WireBytes is the measured bytes sent across every chain link.
	WireBytes int64
	// IngestBytes is the rebuilt unit bytes the replacement absorbed.
	IngestBytes int64
	// ModelWireBytes is the wan-model estimate of the chain traffic,
	// comparable with resync wire modelling.
	ModelWireBytes int64
}

// RepairGroupUnit rebuilds group unit lost onto the replacement
// replica at sink by threading a pipelined partial-sum chain through
// exactly GroupK survivor replicas: each survivor folds its
// coefficient-scaled unit into one accumulating payload and forwards
// it, so no link ever carries more than unit-sized traffic and the
// total wire cost per rebuilt block is about one logical block —
// versus a full mirror resync per block. With no ranges the whole
// device is rebuilt; pass DirtyRanges output to rebuild only what a
// partially-synced replacement is missing. The survivors and sink
// must already be serving (Replica.Serve after SetGroupUnit).
func (p *Primary) RepairGroupUnit(lost int, survivors []GroupMember, sink GroupMember, ranges ...Range) (RepairStats, error) {
	g := p.engine.Group()
	if g.N == 0 {
		return RepairStats{}, errors.New("prins: RepairGroupUnit on a mirroring primary")
	}
	_, nb := p.engine.Geometry()
	return RepairChain(g.K, g.N, lost, nb, survivors, sink, ranges...)
}

// RepairChain is RepairGroupUnit without a Primary: any node that
// knows the group shape (k, n) and the logical device size in blocks
// can drive the rebuild of unit lost through GroupK serving survivors
// onto the serving replacement at sink.
func RepairChain(k, n, lost int, numBlocks uint64, survivors []GroupMember, sink GroupMember, ranges ...Range) (RepairStats, error) {
	rs, err := parity.NewRS(k, n)
	if err != nil {
		return RepairStats{}, err
	}
	hops := make([]repair.Hop, len(survivors))
	for i, m := range survivors {
		hops[i] = repair.Hop{Addr: m.Addr, Export: m.Export, Unit: m.Unit}
	}
	c := &repair.Chain{
		RS:        rs,
		Lost:      lost,
		Survivors: hops,
		Sink:      repair.Hop{Addr: sink.Addr, Export: sink.Export, Unit: sink.Unit},
	}
	rgs := make([]block.Range, len(ranges))
	for i, r := range ranges {
		rgs[i] = block.Range{Start: r.Start, Count: r.Count}
	}
	st, err := c.Run(numBlocks, rgs...)
	return RepairStats{
		Chains:         st.Chains,
		Blocks:         st.Blocks,
		WireBytes:      st.WireBytes,
		IngestBytes:    st.IngestBytes,
		ModelWireBytes: st.ModelWireBytes,
	}, err
}

// ReplicaStat is one attached replica's pipeline health and delivery
// counters.
type ReplicaStat struct {
	// Degraded reports whether this replica has been dropped from live
	// replication.
	Degraded bool
	// Shipped is the number of frames this replica acknowledged.
	Shipped int64
	// PayloadBytes is the encoded payload delivered to this replica.
	PayloadBytes int64
	// WireBytes models on-the-wire bytes delivered to this replica.
	WireBytes int64
	// Retries counts delivery attempts beyond the first.
	Retries int64
	// Dropped counts frames elided while the replica was degraded.
	Dropped int64
	// Lag is how many frames behind this replica currently is; zeroed
	// by ClearDegraded after a resync.
	Lag int64
	// Diverged counts applies this replica refused after hash
	// verification failed; the refused blocks are in DirtyRanges.
	Diverged int64
	// DedupeHits counts frames delivered to this replica by reference
	// instead of by value (requires Config.DedupeEntries).
	DedupeHits int64
	// DedupeMisses counts by-ref attempts this replica refused with
	// REF-MISS.
	DedupeMisses int64
	// DedupeSavedWireBytes is the net data-segment bytes dedupe saved
	// on this replica's wire, crediting delivered writes only.
	DedupeSavedWireBytes int64
}

// ReplicaStats reports each attached replica's state in attach order.
func (p *Primary) ReplicaStats() []ReplicaStat {
	stats := p.engine.ReplicaStats()
	out := make([]ReplicaStat, len(stats))
	for i, rs := range stats {
		out[i] = ReplicaStat{
			Degraded:     rs.Degraded,
			Shipped:      rs.Metrics.Shipped,
			PayloadBytes: rs.Metrics.PayloadBytes,
			WireBytes:    rs.Metrics.WireBytes,
			Retries:      rs.Metrics.Retries,
			Dropped:      rs.Metrics.Dropped,
			Lag:          rs.Metrics.Lag,
			Diverged:     rs.Metrics.Diverged,

			DedupeHits:           rs.Metrics.DedupeHits,
			DedupeMisses:         rs.Metrics.DedupeMisses,
			DedupeSavedWireBytes: rs.Metrics.DedupeSavedWire,
		}
	}
	return out
}

// Stats snapshots the replication counters.
func (p *Primary) Stats() Stats {
	s := p.engine.Traffic().Snapshot()
	return Stats{
		Writes:              s.Writes,
		Replicated:          s.Replicated,
		Skipped:             s.Skipped,
		PayloadBytes:        s.PayloadBytes,
		WireBytes:           s.WireBytes,
		RawBytes:            s.RawBytes,
		EncodeTime:          s.EncodeTime,
		MeanPayload:         s.MeanPayload(),
		SavingsVsRaw:        s.SavingsVsRaw(),
		MeanChangedFraction: p.engine.Density().Mean(),
		Retries:             s.Retries,
		Dropped:             s.Dropped,
		Diverged:            s.Diverged,
		Batches:             s.Batches,
		CoalescedFrames:     s.Coalesced,
		BatchSavedWireBytes: s.BatchSavedWire,

		DedupeHits:           s.DedupeHits,
		DedupeMisses:         s.DedupeMisses,
		DedupeSavedWireBytes: s.DedupeSavedWire,
	}
}

// Close stops the scrubbers, drains replication, stops serving, and
// closes replica connections. The local store remains open (the
// caller owns it). Scrubbers stop FIRST: a scrub pass reads the
// engine and repairs over its own session, so tearing the engine down
// under an in-flight pass would race it.
func (p *Primary) Close() error {
	var err error
	for _, sc := range p.scrubs {
		if serr := sc.s.Stop(); err == nil {
			err = serr
		}
		_ = sc.conn.Close()
	}
	p.scrubs = nil
	if cerr := p.engine.Close(); err == nil {
		err = cerr
	}
	if p.target != nil {
		if cerr := p.target.Close(); err == nil {
			err = cerr
		}
	}
	for _, c := range p.conns {
		if cerr := c.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	for _, c := range p.resilient {
		if cerr := c.Close(); err == nil && !errors.Is(cerr, net.ErrClosed) {
			err = cerr
		}
	}
	return err
}

// Replica is the replica-side engine: it applies pushes from a
// primary to its local store, keeping a byte-identical copy.
type Replica struct {
	engine *core.ReplicaEngine
	target *iscsi.Target
	jrnl   *journal.Journal
}

// NewReplica wraps local as a replication target. Applies are not
// crash-safe; see NewReplicaJournaled.
func NewReplica(local Store) *Replica {
	return &Replica{engine: core.NewReplicaEngine(local)}
}

// NewReplicaJournaled wraps local as a replication target whose
// applies go through a crash-safe intent journal at journalPath: the
// decoded new block is persisted before the in-place write, so a
// write torn by a crash is replayed — here, on reopen — instead of
// leaving a block that is neither old nor new (fatal under PRINS's
// XOR recovery).
func NewReplicaJournaled(local Store, journalPath string) (*Replica, error) {
	jrnl, err := journal.OpenFile(journalPath)
	if err != nil {
		return nil, err
	}
	engine, err := core.NewReplicaEngineJournaled(local, jrnl)
	if err != nil {
		_ = jrnl.Close()
		return nil, err
	}
	return &Replica{engine: engine, jrnl: jrnl}, nil
}

// SetGroupUnit declares this replica a member of a k-of-n
// erasure-coded group holding the unit at index idx (0-based, in the
// primary's attach order). Call it before the first push and before
// Serve: a group replica only accepts stripe pushes whose geometry
// matches, and serving after SetGroupUnit additionally exports the
// repair-chain hop handler so the replica can participate in
// pipelined rebuilds of a lost sibling.
func (r *Replica) SetGroupUnit(k, n, idx int) error {
	return r.engine.SetGroupUnit(k, n, idx)
}

// Serve exposes the replica on the network: primaries replicate to it
// and clients may mount it (read-mostly) for verification or failover.
// A group replica (SetGroupUnit) is additionally served as a
// repair-chain hop.
func (r *Replica) Serve(addr, exportName string) (net.Addr, error) {
	if r.target == nil {
		r.target = iscsi.NewTarget()
	}
	var backend iscsi.Backend = r.engine
	if _, grouped := r.engine.GroupUnit(); grouped {
		backend = repair.NewChainedReplica(r.engine, nil)
	}
	r.target.Export(exportName, backend)
	return r.target.Listen(addr)
}

// Store returns the replica's local device.
func (r *Replica) Store() Store { return r.engine.Store() }

// SetDedupe bounds (entries > 0) or disables (entries <= 0) the
// replica's content-addressed index — the table that lets a by-ref
// entry be materialized by local copy. Replicas run a default-sized
// index out of the box; disabling it forces every by-ref entry into a
// REF-MISS fallback, which the primary heals by re-shipping the frame
// by value, so it is always safe, just slower.
// Call before Serve.
func (r *Replica) SetDedupe(entries int) { r.engine.SetDedupe(entries) }

// WarmDedupe scans the replica's device into its content index so a
// freshly (re)started or freshly InitialSync'd replica resolves
// by-ref pushes immediately instead of waiting for live applies to
// repopulate the index. Call before Serve or with applies quiesced.
func (r *Replica) WarmDedupe() error { return r.engine.WarmDedupe() }

// AppliedWrites returns how many pushes the replica has applied.
func (r *Replica) AppliedWrites() int64 {
	return r.engine.Traffic().Snapshot().ReplicaWrites
}

// Diverged returns how many pushes the replica refused because the
// recovered block failed hash verification.
func (r *Replica) Diverged() int64 {
	return r.engine.Traffic().Snapshot().Diverged
}

// Close stops serving and releases the journal, if any.
func (r *Replica) Close() error {
	var err error
	if r.target != nil {
		err = r.target.Close()
	}
	if r.jrnl != nil {
		if jerr := r.jrnl.Close(); err == nil {
			err = jerr
		}
	}
	return err
}

// RemoteStore is a Store mounted from a remote node plus session
// control.
type RemoteStore interface {
	Store
	// Logout ends the session politely before Close.
	Logout() error
}

// Dial mounts the named export at addr as a local Store, the way the
// paper's applications sit on an iSCSI initiator.
func Dial(addr, exportName string) (RemoteStore, error) {
	init, err := iscsi.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := init.Login(exportName); err != nil {
		_ = init.Close()
		return nil, err
	}
	return init, nil
}

// Equal reports whether two stores hold identical contents — the
// replica-convergence check.
func Equal(a, b Store) (bool, error) {
	return block.Equal(a, b)
}
