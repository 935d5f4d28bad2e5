// Benchmarks regenerating the paper's evaluation. One Benchmark per
// table/figure (see DESIGN.md's experiment index) plus the ablation
// benches for the design choices called out there. Figures print their
// headline ratios as custom benchmark metrics so `go test -bench=.`
// output doubles as a compact reproduction report.
package prins_test

import (
	"fmt"
	"math/rand"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"prins/internal/block"
	"prins/internal/cdp"
	"prins/internal/core"
	"prins/internal/experiments"
	"prins/internal/iscsi"
	"prins/internal/parity"
	"prins/internal/queueing"
	"prins/internal/resync"
	"prins/internal/wan"
	"prins/internal/xcode"
)

// reportTraffic extracts the paper's headline ratios from a traffic
// figure: savings at 8KB and 64KB blocks.
func reportTraffic(b *testing.B, fig *experiments.TrafficFigure) {
	b.Helper()
	pick := func(mode core.Mode, bs int) float64 {
		for _, c := range fig.Cells {
			if c.Mode == mode && c.BlockSize == bs {
				return float64(c.Snapshot.PayloadBytes)
			}
		}
		b.Fatalf("missing cell %v/%d", mode, bs)
		return 0
	}
	for _, bs := range []int{8 << 10, 64 << 10} {
		trad := pick(core.ModeTraditional, bs)
		prins := pick(core.ModePRINS, bs)
		if prins > 0 {
			b.ReportMetric(trad/prins, fmt.Sprintf("trad/prins@%dKB", bs>>10))
		}
	}
}

// BenchmarkFig4TPCCOracle regenerates Figure 4 (TPC-C, Oracle config).
func BenchmarkFig4TPCCOracle(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig4TPCCOracle(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTraffic(b, fig)
		}
	}
}

// BenchmarkFig5TPCCPostgres regenerates Figure 5 (TPC-C, Postgres
// config).
func BenchmarkFig5TPCCPostgres(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig5TPCCPostgres(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTraffic(b, fig)
		}
	}
}

// BenchmarkFig6TPCW regenerates Figure 6 (TPC-W).
func BenchmarkFig6TPCW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig6TPCW(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTraffic(b, fig)
		}
	}
}

// BenchmarkFig7Ext2Micro regenerates Figure 7 (tar micro-benchmark).
func BenchmarkFig7Ext2Micro(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig7Ext2Micro(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportTraffic(b, fig)
		}
	}
}

// BenchmarkFig8QueueT1 regenerates Figure 8 (closed network, T1).
func BenchmarkFig8QueueT1(b *testing.B) {
	params := experiments.DefaultModelParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig8ResponseT1(params)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := fig.Points[len(fig.Points)-1]
			b.ReportMetric(last.Response[core.ModeTraditional].Seconds(), "tradResp@100")
			b.ReportMetric(last.Response[core.ModePRINS].Seconds(), "prinsResp@100")
		}
	}
}

// BenchmarkFig9QueueT3 regenerates Figure 9 (closed network, T3).
func BenchmarkFig9QueueT3(b *testing.B) {
	params := experiments.DefaultModelParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig9ResponseT3(params)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := fig.Points[len(fig.Points)-1]
			b.ReportMetric(last.Response[core.ModeTraditional].Seconds(), "tradResp@100")
			b.ReportMetric(last.Response[core.ModePRINS].Seconds(), "prinsResp@100")
		}
	}
}

// BenchmarkFig10MM1 regenerates Figure 10 (router saturation).
func BenchmarkFig10MM1(b *testing.B) {
	params := experiments.DefaultModelParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10MM1(params); err != nil {
			b.Fatal(err)
		}
	}
	for mode, payload := range params.MeanPayload {
		q := queueing.MM1{Service: wan.RouterServiceTime(int(payload), wan.T1)}
		b.ReportMetric(q.SaturationRate(), mode.String()+"SatRate")
	}
}

// BenchmarkOverhead regenerates the Section 4 overhead measurement
// (paper: <10% without RAID, ~0 with RAID).
func BenchmarkOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MeasureOverhead(8<<10, 200, 200*time.Microsecond)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(res.OverheadVsTraditionalPct(), "overheadVsTrad%")
			b.ReportMetric(res.RAIDOverheadPct(), "raidOverhead%")
		}
	}
}

// BenchmarkChangeDensity regenerates the Sections 1-2 observation that
// 5-20% of a block changes per write.
func BenchmarkChangeDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MeasureDensity(1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range res {
				b.ReportMetric(r.Mean*100, r.Workload+"-mean%")
			}
		}
	}
}

// --- ablation and micro benchmarks (DESIGN.md section 5) ---

// BenchmarkXOR compares the word-wide XOR kernel against a byte-wise
// loop (ablation 4).
func BenchmarkXOR(b *testing.B) {
	for _, size := range []int{4 << 10, 64 << 10} {
		a := make([]byte, size)
		c := make([]byte, size)
		dst := make([]byte, size)
		rand.New(rand.NewSource(1)).Read(a)
		rand.New(rand.NewSource(2)).Read(c)

		b.Run(fmt.Sprintf("words-%dKB", size>>10), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := parity.XOR(dst, a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationCodec compares the parity encodings on a 10%-dense
// 8KB parity block (ablation 1).
func BenchmarkAblationCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	fp := make([]byte, 8<<10)
	// 10% changed in clustered runs.
	for changed := 0; changed < len(fp)/10; {
		run := 16 + rng.Intn(64)
		off := rng.Intn(len(fp) - run)
		rng.Read(fp[off : off+run])
		changed += run
	}
	for _, codec := range []xcode.Codec{xcode.CodecRaw, xcode.CodecZRL, xcode.CodecFlate, xcode.CodecZRLFlate} {
		b.Run(codec.String(), func(b *testing.B) {
			b.SetBytes(int64(len(fp)))
			var frameLen int
			for i := 0; i < b.N; i++ {
				frame, err := xcode.Encode(codec, fp)
				if err != nil {
					b.Fatal(err)
				}
				frameLen = len(frame)
			}
			b.ReportMetric(float64(len(fp))/float64(frameLen), "ratio")
		})
	}
}

// BenchmarkEngineWrite measures the full primary write path per mode
// with an in-process replica.
func BenchmarkEngineWrite(b *testing.B) {
	for _, mode := range core.AllModes() {
		b.Run(mode.String(), func(b *testing.B) {
			benchEngineWrite(b, mode, false)
		})
	}
}

// BenchmarkAblationPipeline compares synchronous shipping against the
// paper's async engine-thread design (ablation 2).
func BenchmarkAblationPipeline(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchEngineWrite(b, core.ModePRINS, false) })
	b.Run("async", func(b *testing.B) { benchEngineWrite(b, core.ModePRINS, true) })
}

func benchEngineWrite(b *testing.B, mode core.Mode, async bool) {
	b.Helper()
	const blockSize = 8 << 10
	primary, err := block.NewMem(blockSize, 256)
	if err != nil {
		b.Fatal(err)
	}
	sink, err := block.NewMem(blockSize, 256)
	if err != nil {
		b.Fatal(err)
	}
	replica := core.NewReplicaEngine(sink)
	engine, err := core.NewEngine(primary, core.Config{Mode: mode, Async: async})
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Close()
	engine.AttachReplica(&core.Loopback{Replica: replica})

	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, blockSize)
	rng.Read(buf)
	for lba := uint64(0); lba < 256; lba++ {
		if err := engine.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}

	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(rng.Intn(256))
		off := rng.Intn(blockSize * 9 / 10)
		for j := 0; j < blockSize/10; j++ {
			buf[off+j] = byte(rng.Intn(256))
		}
		if err := engine.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	if err := engine.Drain(); err != nil {
		b.Fatal(err)
	}
}

// wanDelayClient models a replica a fixed WAN round trip away.
type wanDelayClient struct {
	delay time.Duration
	inner core.ReplicaClient
}

func (c *wanDelayClient) Push(hdr iscsi.PushHeader, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	time.Sleep(c.delay)
	return c.inner.Push(hdr, entries)
}

// BenchmarkFanoutLatency measures synchronous write latency against 1,
// 2, 4, and 8 replicas, each behind a simulated 200µs round trip. With
// per-replica ship pipelines the deliveries overlap, so per-write
// latency should stay roughly flat (the slowest replica, not the sum)
// as replica count grows.
func BenchmarkFanoutLatency(b *testing.B) {
	const (
		blockSize = 8 << 10
		rtt       = 200 * time.Microsecond
	)
	for _, replicas := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("replicas-%d", replicas), func(b *testing.B) {
			primary, err := block.NewMem(blockSize, 256)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(primary, core.Config{Mode: core.ModePRINS})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			for i := 0; i < replicas; i++ {
				sink, err := block.NewMem(blockSize, 256)
				if err != nil {
					b.Fatal(err)
				}
				engine.AttachReplica(&wanDelayClient{
					delay: rtt,
					inner: &core.Loopback{Replica: core.NewReplicaEngine(sink)},
				})
			}

			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, blockSize)
			rng.Read(buf)

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := uint64(rng.Intn(256))
				off := rng.Intn(blockSize * 9 / 10)
				for j := 0; j < blockSize/10; j++ {
					buf[off+j] = byte(rng.Intn(256))
				}
				if err := engine.WriteBlock(lba, buf); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/write")
		})
	}
}

// BenchmarkAblationCoalesce quantifies what same-LBA write coalescing
// would add on top of PRINS (ablation 5): parities of back-to-back
// writes to one block XOR together, so a coalescing window ships one
// merged parity instead of several.
func BenchmarkAblationCoalesce(b *testing.B) {
	const (
		blockSize = 8 << 10
		numBlocks = 32 // small working set => frequent re-writes
		window    = 8
	)
	rng := rand.New(rand.NewSource(5))

	// Build a write stream over a hot working set.
	type write struct {
		lba uint64
		fp  []byte
	}
	mkStream := func(n int) []write {
		blocks := make([][]byte, numBlocks)
		for i := range blocks {
			blocks[i] = make([]byte, blockSize)
			rng.Read(blocks[i])
		}
		stream := make([]write, 0, n)
		for i := 0; i < n; i++ {
			lba := uint64(rng.Intn(numBlocks))
			old := blocks[lba]
			newData := append([]byte(nil), old...)
			off := rng.Intn(blockSize * 9 / 10)
			rng.Read(newData[off : off+blockSize/10])
			fp, err := parity.Forward(newData, old)
			if err != nil {
				b.Fatal(err)
			}
			blocks[lba] = newData
			stream = append(stream, write{lba: lba, fp: fp})
		}
		return stream
	}
	stream := mkStream(512)

	encodeAll := func(ws []write) int64 {
		var total int64
		for _, w := range ws {
			frame, err := xcode.Encode(xcode.CodecZRL, w.fp)
			if err != nil {
				b.Fatal(err)
			}
			total += int64(len(frame))
		}
		return total
	}

	coalesce := func(ws []write) []write {
		var out []write
		for start := 0; start < len(ws); start += window {
			end := start + window
			if end > len(ws) {
				end = len(ws)
			}
			merged := make(map[uint64][]byte)
			var order []uint64
			for _, w := range ws[start:end] {
				if acc, ok := merged[w.lba]; ok {
					if err := parity.XORInPlace(acc, w.fp); err != nil {
						b.Fatal(err)
					}
				} else {
					merged[w.lba] = append([]byte(nil), w.fp...)
					order = append(order, w.lba)
				}
			}
			for _, lba := range order {
				out = append(out, write{lba: lba, fp: merged[lba]})
			}
		}
		return out
	}

	b.Run("no-coalesce", func(b *testing.B) {
		var bytesOut int64
		for i := 0; i < b.N; i++ {
			bytesOut = encodeAll(stream)
		}
		b.ReportMetric(float64(bytesOut)/float64(len(stream)), "B/write")
	})
	b.Run("window-8", func(b *testing.B) {
		var bytesOut int64
		var msgs int
		for i := 0; i < b.N; i++ {
			merged := coalesce(stream)
			bytesOut = encodeAll(merged)
			msgs = len(merged)
		}
		b.ReportMetric(float64(bytesOut)/float64(len(stream)), "B/write")
		b.ReportMetric(float64(msgs), "messages")
	})
}

// BenchmarkBatchShip measures async PRINS replication through a real
// initiator/target session over a latency-shaped link, with wire
// batching off (frames-1) versus on (frames-64). Each unbatched push
// pays the link latency per PDU, a batch pays it once for the whole
// drained backlog, so the batched variant should finish the same write
// stream at least 2x faster.
func BenchmarkBatchShip(b *testing.B) {
	const (
		blockSize = 8 << 10
		numBlocks = 256
		latency   = 500 * time.Microsecond
	)
	for _, frames := range []int{1, 64} {
		b.Run(fmt.Sprintf("frames-%d", frames), func(b *testing.B) {
			sink, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			target := iscsi.NewTarget()
			target.Export("replica", core.NewReplicaEngine(sink))
			addr, err := target.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer target.Close()
			raw, err := net.Dial("tcp", addr.String())
			if err != nil {
				b.Fatal(err)
			}
			client := iscsi.NewInitiator(wan.Shape(raw, wan.LinkConfig{Latency: latency}))
			defer client.Close()
			if err := client.Login("replica"); err != nil {
				b.Fatal(err)
			}

			primary, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(primary, core.Config{
				Mode:        core.ModePRINS,
				Async:       true,
				QueueDepth:  256,
				BatchFrames: frames,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			engine.AttachReplica(client)

			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, blockSize)
			rng.Read(buf)
			for lba := uint64(0); lba < numBlocks; lba++ {
				if err := engine.WriteBlock(lba, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := engine.Drain(); err != nil {
				b.Fatal(err)
			}

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lba := uint64(rng.Intn(numBlocks))
				off := rng.Intn(blockSize * 9 / 10)
				for j := 0; j < blockSize/20; j++ {
					buf[off+j] = byte(rng.Intn(256))
				}
				if err := engine.WriteBlock(lba, buf); err != nil {
					b.Fatal(err)
				}
			}
			if err := engine.Drain(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
			if s := engine.Traffic().Snapshot(); frames > 1 && s.Batches > 0 {
				b.ReportMetric(float64(s.Replicated)/float64(s.Batches), "frames/batch")
			}
		})
	}
}

// slowStore wraps a block store with a fixed write latency, standing in
// for a real disk. The sleep sits inside the engine's per-shard
// critical section, so it overlaps across shards (even on one CPU) but
// serializes within a shard — exactly the contention the sharded
// engine exists to remove.
type slowStore struct {
	block.Store
	delay time.Duration
}

func (s *slowStore) WriteBlock(lba uint64, data []byte) error {
	time.Sleep(s.delay)
	return s.Store.WriteBlock(lba, data)
}

// BenchmarkShardScaling measures aggregate write throughput of 8
// concurrent writers against a 1ms-write store as the engine's shard
// count grows 1 -> 8. One shard serializes every writer behind one
// mutex (~1/latency writes/s); N shards let up to N writes overlap, so
// throughput should scale near-linearly until writers collide on
// shards. Alongside the measurement it reports the closed-network MVA
// prediction for the same system — writers as customers, shards as k
// service centres of demand S/k (uniform LBAs visit each shard with
// probability 1/k) — cross-validating the queueing model against the
// implementation.
func BenchmarkShardScaling(b *testing.B) {
	const (
		blockSize = 4 << 10
		numBlocks = 1 << 10
		// 1ms, not less: the platform timer rounds sub-millisecond
		// sleeps up to ~1.1ms, which would skew the MVA cross-check.
		ioDelay = time.Millisecond
		writers = 8
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			mem, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			sink, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(&slowStore{Store: mem, delay: ioDelay}, core.Config{
				Mode:       core.ModePRINS,
				Async:      true,
				QueueDepth: 256,
				Shards:     shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			if err := engine.AttachReplica(&core.Loopback{Replica: core.NewReplicaEngine(sink)}); err != nil {
				b.Fatal(err)
			}

			var seed, writeErr atomic.Int64
			var firstErr atomic.Value
			b.SetParallelism(writers) // writers goroutines even at GOMAXPROCS=1
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				buf := make([]byte, blockSize)
				rng.Read(buf)
				for pb.Next() {
					buf[0] = byte(rng.Intn(256))
					if err := engine.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
						if writeErr.Add(1) == 1 {
							firstErr.Store(err)
						}
						return
					}
				}
			})
			b.StopTimer()
			if err, _ := firstErr.Load().(error); err != nil {
				b.Fatal(err)
			}
			if err := engine.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")

			mva, err := queueing.Solve(queueing.Network{
				RouterService: queueing.UniformRouters(ioDelay/time.Duration(shards), shards),
			}, writers)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(mva.Throughput, "mvaWrites/s")
		})
	}
}

// BenchmarkReplicaApply measures the replica-side decode + backward
// parity + in-place write path.
func BenchmarkReplicaApply(b *testing.B) {
	const blockSize = 8 << 10
	sink, err := block.NewMem(blockSize, 64)
	if err != nil {
		b.Fatal(err)
	}
	replica := core.NewReplicaEngine(sink)

	// A representative 10%-dense parity frame.
	rng := rand.New(rand.NewSource(9))
	fp := make([]byte, blockSize)
	off := rng.Intn(blockSize * 9 / 10)
	rng.Read(fp[off : off+blockSize/10])
	frame, err := xcode.Encode(xcode.CodecZRL, fp)
	if err != nil {
		b.Fatal(err)
	}

	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		entry := []iscsi.BatchEntry{{Seq: uint64(i + 1), LBA: uint64(i % 64), Frame: frame}}
		if st := replica.ApplyPush(iscsi.PushHeader{Mode: uint8(core.ModePRINS)}, entry); st[0] != iscsi.StatusOK {
			b.Fatal(st[0])
		}
	}
}

// BenchmarkResync measures hash-based delta repair of a replica with
// 5% divergence versus the full-copy alternative.
func BenchmarkResync(b *testing.B) {
	const (
		blockSize = 8 << 10
		numBlocks = 256
	)
	local, err := block.NewMem(blockSize, numBlocks)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, blockSize)
	for lba := uint64(0); lba < numBlocks; lba++ {
		rng.Read(buf)
		if err := local.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		replicaStore, err := block.NewMem(blockSize, numBlocks)
		if err != nil {
			b.Fatal(err)
		}
		if err := block.Copy(replicaStore, local); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < numBlocks/20; j++ { // 5% divergence
			rng.Read(buf)
			if err := replicaStore.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
				b.Fatal(err)
			}
		}
		target := iscsi.NewTarget()
		target.Export("r", &iscsi.StoreBackend{Store: replicaStore})
		addr, err := target.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		remote, err := iscsi.Dial(addr.String())
		if err != nil {
			b.Fatal(err)
		}
		if err := remote.Login("r"); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		stats, err := resync.Run(local, remote, resync.Config{})
		if err != nil {
			b.Fatal(err)
		}

		b.StopTimer()
		remote.Close()
		target.Close()
		if i == 0 {
			b.ReportMetric(float64(stats.WireBytes), "wireB")
			b.ReportMetric(float64(stats.FullCopyBytes(blockSize)), "fullCopyB")
		}
		b.StartTimer()
	}
}

// BenchmarkCDPAppend measures the journaling cost per protected write
// and the history's space efficiency on 10%-changed blocks.
func BenchmarkCDPAppend(b *testing.B) {
	const blockSize = 8 << 10
	inner, err := block.NewMem(blockSize, 64)
	if err != nil {
		b.Fatal(err)
	}
	log := cdp.NewLog(blockSize)
	s, err := cdp.NewStore(inner, log)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	buf := make([]byte, blockSize)
	rng.Read(buf)
	for lba := uint64(0); lba < 64; lba++ {
		if err := s.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	log.Truncate(log.Seq())

	b.SetBytes(blockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(rng.Intn(64))
		if err := s.ReadBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
		off := rng.Intn(blockSize * 9 / 10)
		for j := 0; j < blockSize/10; j++ {
			buf[off+j] = byte(rng.Intn(256))
		}
		if err := s.WriteBlock(lba, buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := log.Len(); n > 0 {
		b.ReportMetric(float64(log.Bytes())/float64(n), "journalB/write")
	}
}

// BenchmarkMVAvsSimulation solves the Figure 8 network analytically
// and by discrete-event simulation, reporting both response times —
// the cross-validation of the queueing machinery.
func BenchmarkMVAvsSimulation(b *testing.B) {
	net := queueing.Network{
		ThinkTime:     100 * time.Millisecond,
		RouterService: queueing.UniformRouters(wan.RouterServiceTime(500, wan.T1), 2),
	}
	var mva, sim queueing.Result
	for i := 0; i < b.N; i++ {
		var err error
		mva, err = queueing.Solve(net, 40)
		if err != nil {
			b.Fatal(err)
		}
		sim, err = queueing.SimulateClosed(net, 40, 20000, 7)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mva.ResponseTime.Seconds()*1e3, "mvaRespMs")
	b.ReportMetric(sim.ResponseTime.Seconds()*1e3, "simRespMs")
}

// BenchmarkAblationAggressive compares the PRINS fast path (ZRL only)
// against opportunistic best-of(ZRL, ZRL+DEFLATE) encoding on a
// recorded TPC-C-like parity stream: the CPU/bytes trade-off behind
// Config.AggressiveEncoding.
func BenchmarkAblationAggressive(b *testing.B) {
	// Build a corpus of realistic parity blocks: 10%-changed with
	// clustered runs, like database page updates produce.
	rng := rand.New(rand.NewSource(17))
	corpus := make([][]byte, 64)
	for i := range corpus {
		fp := make([]byte, 8<<10)
		for changed := 0; changed < len(fp)/10; {
			run := 8 + rng.Intn(48)
			off := rng.Intn(len(fp) - run)
			rng.Read(fp[off : off+run])
			changed += run
		}
		corpus[i] = fp
	}

	variants := []struct {
		name   string
		codecs []xcode.Codec
	}{
		{name: "zrl-only", codecs: []xcode.Codec{xcode.CodecZRL}},
		{name: "best-of-two", codecs: []xcode.Codec{xcode.CodecZRL, xcode.CodecZRLFlate}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			b.SetBytes(8 << 10)
			var total int64
			for i := 0; i < b.N; i++ {
				frame, err := xcode.EncodeBest(corpus[i%len(corpus)], v.codecs...)
				if err != nil {
					b.Fatal(err)
				}
				total += int64(len(frame))
			}
			b.ReportMetric(float64(total)/float64(b.N), "frameB")
		})
	}
}

// --- hot path: group commit + zero-copy encode (DESIGN.md section 4) ---

// hotpathEncode is the primary's per-write encode work exactly as the
// pipeline composes it: fused XOR+density kernel into a scratch parity
// block, the block hash the replica verifies against, and a ZRL
// append-encode into a pooled frame buffer. Returns the frame.
func hotpathEncode(fp, newData, oldData, buf []byte) ([]byte, error) {
	if _, err := parity.XORCountNonZero(fp, newData, oldData); err != nil {
		return nil, err
	}
	hotpathHash = iscsi.HashBlock(newData)
	return xcode.AppendEncodeBest(buf[:0], fp, xcode.CodecZRL)
}

// hotpathHash keeps the hash in hotpathEncode from being optimized away.
var hotpathHash uint64

// hotpathBlocks builds a representative (old, new) block pair: 10%
// changed in one clustered run, like a database page update.
func hotpathBlocks(blockSize int) (oldData, newData []byte) {
	rng := rand.New(rand.NewSource(11))
	oldData = make([]byte, blockSize)
	rng.Read(oldData)
	newData = append([]byte(nil), oldData...)
	off := rng.Intn(blockSize * 9 / 10)
	rng.Read(newData[off : off+blockSize/10])
	return oldData, newData
}

// TestEncodePathZeroAllocs pins the zero-copy encode contract: with a
// warmed pooled buffer, one write's parity + density + hash + ZRL
// encode allocates nothing. A regression here means a per-write
// allocation crept back into the hot path.
func TestEncodePathZeroAllocs(t *testing.T) {
	const blockSize = 8 << 10
	oldData, newData := hotpathBlocks(blockSize)
	fp := make([]byte, blockSize)
	buf := make([]byte, 0, 64)
	// Warm the buffer to its steady-state capacity, as the frame pool
	// does after the first write.
	buf, err := hotpathEncode(fp, newData, oldData, buf)
	if err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(100, func() {
		if _, err := hotpathEncode(fp, newData, oldData, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encode hot path allocates: %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkHotpathEncode measures the per-write CPU cost of the
// zero-copy encode path (fused parity kernel, block hash, ZRL encode)
// with allocation reporting; allocs/op must read 0 (asserted by
// TestEncodePathZeroAllocs).
func BenchmarkHotpathEncode(b *testing.B) {
	const blockSize = 8 << 10
	oldData, newData := hotpathBlocks(blockSize)
	fp := make([]byte, blockSize)
	buf := make([]byte, 0, 2*blockSize)

	b.SetBytes(blockSize)
	b.ReportAllocs()
	b.ResetTimer()
	var frameLen int
	for i := 0; i < b.N; i++ {
		frame, err := hotpathEncode(fp, newData, oldData, buf)
		if err != nil {
			b.Fatal(err)
		}
		frameLen = len(frame)
	}
	b.ReportMetric(float64(frameLen), "frameB")
}

// BenchmarkHotpathSyncShip measures synchronous replication throughput
// of 8 concurrent writers through a real initiator/target session over
// a metro-latency shaped link, with group commit off versus on.
// Ungrouped, every writer takes the shard lock, applies, and enqueues
// its own message, and the staggered arrivals split across wire
// pushes; grouped, a queue-full of same-shard writes commits under
// one lock pass (the early-flush trigger fires at FlushFrames, so the
// window never idles a saturated shard) and drains to the replica as
// one aligned wire batch per group. This is the writes/s figure the
// CI regression guard tracks (BENCH_hotpath.json).
func BenchmarkHotpathSyncShip(b *testing.B) {
	const (
		blockSize = 8 << 10
		numBlocks = 256
		latency   = 500 * time.Microsecond
		writers   = 8
	)
	for _, grouped := range []bool{false, true} {
		name := "group-off"
		cfg := core.Config{
			Mode:        core.ModePRINS,
			QueueDepth:  256,
			BatchFrames: 64,
		}
		if grouped {
			name = "group-on"
			// Window >= the link round trip: in-flight writers' acks
			// return inside the window, so their next writes rejoin
			// the forming group instead of phase-splitting into
			// half-size groups. The early-flush trigger still commits
			// the moment all writers have queued.
			cfg.FlushWindow = 4 * latency
			cfg.FlushFrames = writers
		}
		b.Run(name, func(b *testing.B) {
			sink, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			target := iscsi.NewTarget()
			target.Export("replica", core.NewReplicaEngine(sink))
			addr, err := target.Listen("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer target.Close()
			raw, err := net.Dial("tcp", addr.String())
			if err != nil {
				b.Fatal(err)
			}
			client := iscsi.NewInitiator(wan.Shape(raw, wan.LinkConfig{Latency: latency}))
			defer client.Close()
			if err := client.Login("replica"); err != nil {
				b.Fatal(err)
			}

			primary, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(primary, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			if err := engine.AttachReplica(client); err != nil {
				b.Fatal(err)
			}

			var seed, writeErr atomic.Int64
			var firstErr atomic.Value
			b.SetParallelism(writers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				buf := make([]byte, blockSize)
				rng.Read(buf)
				for pb.Next() {
					buf[rng.Intn(blockSize)] = byte(rng.Intn(256))
					if err := engine.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
						if writeErr.Add(1) == 1 {
							firstErr.Store(err)
						}
						return
					}
				}
			})
			b.StopTimer()
			if err, _ := firstErr.Load().(error); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
			if s := engine.Traffic().Snapshot(); s.GroupCommits > 0 {
				b.ReportMetric(float64(s.GroupedWrites)/float64(s.GroupCommits), "writes/group")
			}
		})
	}
}

// BenchmarkHotpathShards measures the pure CPU hot path — fused
// parity kernel, zero-copy encode, sharded metrics banks — under 8
// concurrent writers as the shard count grows 1 -> 8: one shard
// serializes every encode behind one lock, N shards let encodes
// overlap while the per-shard counter banks keep the metrics
// cachelines from bouncing between them.
func BenchmarkHotpathShards(b *testing.B) {
	const (
		blockSize = 4 << 10
		numBlocks = 1 << 10
		writers   = 8
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards-%d", shards), func(b *testing.B) {
			mem, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			sink, err := block.NewMem(blockSize, numBlocks)
			if err != nil {
				b.Fatal(err)
			}
			engine, err := core.NewEngine(mem, core.Config{
				Mode:       core.ModePRINS,
				Async:      true,
				QueueDepth: 256,
				Shards:     shards,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer engine.Close()
			if err := engine.AttachReplica(&core.Loopback{Replica: core.NewReplicaEngine(sink)}); err != nil {
				b.Fatal(err)
			}

			var seed, writeErr atomic.Int64
			var firstErr atomic.Value
			b.SetParallelism(writers)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(seed.Add(1)))
				buf := make([]byte, blockSize)
				rng.Read(buf)
				for pb.Next() {
					buf[rng.Intn(blockSize)] = byte(rng.Intn(256))
					if err := engine.WriteBlock(uint64(rng.Intn(numBlocks)), buf); err != nil {
						if writeErr.Add(1) == 1 {
							firstErr.Store(err)
						}
						return
					}
				}
			})
			b.StopTimer()
			if err, _ := firstErr.Load().(error); err != nil {
				b.Fatal(err)
			}
			if err := engine.Drain(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/s")
		})
	}
}
