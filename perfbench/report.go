package main

import (
	"time"
)

// endToEnd derives what a user of the system sees from an untraced
// phase. The summary's rates, latencies and CPU costs, which every
// workload reports, are medians over the phase's windows, so a passing
// disturbance of the shared machine moves them little. The extras are
// printed, not summarized: tail latencies, which such disturbances
// move too much to gate, and what only some workloads have.
func endToEnd(p *phaseLog, setups []float64, genS float64) (summary, extra []metric) {
	var rate, p50, p90, cpu []float64
	for _, w := range p.windows {
		if w.writes == 0 {
			continue
		}
		secs := time.Duration(w.to - w.from).Seconds()
		lat := sortedCopy(w.writeLat)
		rate = append(rate, float64(w.writes)/secs)
		p50 = append(p50, float64(percentile(lat, 0.50))/1e3)
		p90 = append(p90, float64(percentile(lat, 0.90))/1e3)
		cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e3/float64(w.writes))
	}
	n, nw := int64(len(p.writeLat)), int64(len(rate))
	// Wire bytes do not suffer from a busy host, and which writes a
	// window holds varies them, so they are taken over the whole phase.
	_, _, link := p.total()
	summary = []metric{
		{"writes_per_s", "1/s", median(rate), nw},
		{"write_p50_us", "us", median(p50), n},
		{"wire_bytes_per_write", "B", ratio(float64(link.fwdBytes+link.revBytes), float64(p.writes)), p.writes},
		{"cpu_us_per_write", "us", median(cpu), p.writes},
		{"setup_s", "s", median(setups), int64(len(setups))},
		{"peak_rss_mb", "MB", peakRSSMB(), 1},
	}
	all := sortedCopy(p.writeLat)
	extra = []metric{
		{"write_p90_us", "us", median(p90), n},
		{"write_p99_us", "us", float64(percentile(all, 0.99)) / 1e3, n},
		{"write_p999_us", "us", float64(percentile(all, 0.999)) / 1e3, n},
		{"op_fail_ratio", "ratio", ratio(float64(p.failed), float64(p.attempted)), p.attempted},
		{"windows", "count", float64(nw), nw},
		{"gen_s", "s", genS, 1},
	}
	if len(p.readLat) > 0 {
		rl := sortedCopy(p.readLat)
		extra = append(extra,
			metric{"read_p50_us", "us", float64(percentile(rl, 0.50)) / 1e3, int64(len(rl))},
			metric{"read_p99_us", "us", float64(percentile(rl, 0.99)) / 1e3, int64(len(rl))})
	}
	if k := int64(len(p.resyncs)); k > 0 {
		var durs, wire, cpu []float64
		for _, w := range p.windows {
			durs = append(durs, time.Duration(w.to-w.from).Seconds())
			wire = append(wire, float64(w.link.fwdBytes+w.link.revBytes))
			cpu = append(cpu, float64(w.cpu.Nanoseconds())/1e6)
		}
		extra = append(extra,
			metric{"resync_s", "s", median(durs), k},
			metric{"resync_wire_bytes", "B", median(wire), k},
			metric{"resync_cpu_ms", "ms", median(cpu), k})
	}
	return summary, extra
}

// perLayer derives the per-layer ledger from the traced phase t: its
// spans, the engine and link counters around it, and the kernel replay
// of the pairs it captured. u is the untraced phase before it.
func perLayer(d *deployment, led *ledger, u, t *phaseLog, ks kernelStats) []metric {
	writes := float64(t.writes)
	perWrite := func(x float64) float64 { return ratio(x, writes) }
	count := func(ly layer) float64 { return float64(len(led.spans[ly])) }
	e0, e1 := t.engine0, t.engine1
	ew := float64(e1.Writes - e0.Writes)

	turns := d.link.TurnsSince(t.turnMark0)
	turns = turns[:min(len(turns), t.turnMark1-t.turnMark0)]
	var turnNs, serviceNs []int64
	for _, x := range turns {
		turnNs = append(turnNs, x.end-x.start)
		serviceNs = append(serviceNs, x.service)
	}
	turnSorted := sortedCopy(turnNs)

	var hashTurns, hashBytes, dataBytes, repaired float64
	if k := float64(len(t.resyncs)); k > 0 {
		for i, r := range t.resyncs {
			hashTurns += float64(t.windows[i].link.turns) - float64(r.BlocksRepaired)
			hashBytes += float64(r.HashBytes)
			dataBytes += float64(r.DataBytes)
			repaired += float64(r.BlocksRepaired)
		}
		hashTurns, hashBytes, dataBytes, repaired = hashTurns/k, hashBytes/k, dataBytes/k, repaired/k
	}

	uElapsed, _, _ := u.total()
	tElapsed, _, link := t.total()
	untracedRate := ratio(float64(u.writes), uElapsed.Seconds())
	tracedRate := ratio(writes, tElapsed.Seconds())
	n := t.writes
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	return []metric{
		{"block.primary.write_us", "us", led.meanUS(layerPrimaryWrite), int64(count(layerPrimaryWrite))},
		{"block.primary.read_us", "us", led.meanUS(layerPrimaryRead), int64(count(layerPrimaryRead))},
		{"block.primary.reads_per_write", "ratio", perWrite(count(layerPrimaryRead)), n},

		{"core.self_us_per_write", "us", perWrite(us(led.selfTime())), n},
		{"core.encode_us_per_write", "us", ratio(us(e1.EncodeTime-e0.EncodeTime), ew), int64(ew)},
		{"core.payload_bytes_per_write", "B", ratio(float64(e1.PayloadBytes-e0.PayloadBytes), ew), int64(ew)},
		{"core.coalesced_share", "ratio", ratio(float64(e1.CoalescedFrames-e0.CoalescedFrames), ew), int64(ew)},
		{"core.retries", "count", float64(e1.Retries - e0.Retries), 1},
		{"core.dropped", "count", float64(e1.Dropped - e0.Dropped), 1},
		{"core.diverged", "count", float64(e1.Diverged - e0.Diverged), 1},

		{"dedupe.byref_share", "ratio", ratio(float64(e1.DedupeHits-e0.DedupeHits), float64(e1.Replicated-e0.Replicated)), int64(e1.Replicated - e0.Replicated)},
		{"dedupe.miss_ratio", "ratio", ratio(float64(e1.DedupeMisses-e0.DedupeMisses), float64(e1.DedupeHits-e0.DedupeHits+e1.DedupeMisses-e0.DedupeMisses)), int64(e1.DedupeHits - e0.DedupeHits + e1.DedupeMisses - e0.DedupeMisses)},
		{"dedupe.saved_bytes_per_write", "B", perWrite(float64(e1.DedupeSavedWireBytes - e0.DedupeSavedWireBytes)), n},

		{"wan.turns_per_write", "ratio", perWrite(float64(link.turns)), n},
		{"wan.fwd_bytes_per_write", "B", perWrite(float64(link.fwdBytes)), n},
		{"wan.rev_bytes_per_write", "B", perWrite(float64(link.revBytes)), n},
		{"wan.turn_us_mean", "us", meanNs(turnNs) / 1e3, int64(len(turnNs))},
		{"wan.turn_us_p99", "us", float64(percentile(turnSorted, 0.99)) / 1e3, int64(len(turnNs))},
		{"wan.shaper_wait_us_per_write", "us", perWrite(us(link.shaperWait)), n},

		{"replica.service_us", "us", meanNs(serviceNs) / 1e3, int64(len(serviceNs))},
		{"block.replica.write_us", "us", led.meanUS(layerReplicaWrite), int64(count(layerReplicaWrite))},
		{"block.replica.read_us", "us", led.meanUS(layerReplicaRead), int64(count(layerReplicaRead))},
		{"block.replica.reads_per_write", "ratio", perWrite(count(layerReplicaRead)), n},

		{"parity.xor_ns_per_write", "ns", ks.xorNs, int64(len(led.pairs))},
		{"parity.nonzero_frac", "ratio", ks.nonzeroFrac, int64(len(led.pairs))},
		{"parity.backward_ns_per_write", "ns", ks.backwardNs, int64(len(led.pairs))},
		{"xcode.encode_ns_per_write", "ns", ks.encodeNs, int64(len(led.pairs))},
		{"xcode.frame_bytes_per_write", "B", ks.frameBytes, int64(len(led.pairs))},
		{"xcode.decode_ns_per_write", "ns", ks.decodeNs, int64(len(led.pairs))},
		{"hash.ns_per_block", "ns", ks.hashNs, int64(len(led.pairs))},

		{"resync.hash_turns", "count", hashTurns, int64(len(t.resyncs))},
		{"resync.hash_bytes", "B", hashBytes, int64(len(t.resyncs))},
		{"resync.data_bytes", "B", dataBytes, int64(len(t.resyncs))},
		{"resync.repaired_blocks", "count", repaired, int64(len(t.resyncs))},

		{"trace.untraced_writes_per_s", "1/s", untracedRate, u.writes},
		{"trace.writes_per_s", "1/s", tracedRate, n},
		{"trace.overhead_share", "ratio", 1 - ratio(tracedRate, untracedRate), n},
	}
}

func meanNs(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}
