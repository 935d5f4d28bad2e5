package main

import (
	"bytes"
	"fmt"
	"time"

	"prins/internal/iscsi"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// kernelStats is the replay of captured (old, new) block pairs through
// the per-write kernels, in ns per write.
type kernelStats struct {
	xorNs, backwardNs, encodeNs, decodeNs, hashNs float64
	nonzeroFrac, frameBytes                       float64
}

// kernelTime is how long each kernel is replayed over the pairs.
const kernelTime = 50 * time.Millisecond

// replayKernels runs every pair through the forward XOR with density
// count, the ZRL encode the engine ships, its decode, the backward XOR
// the replica applies, and the content hash; each kernel repeats over
// the pairs for kernelTime. It also checks each round trip restores
// the new block.
func replayKernels(pairs []pair) (kernelStats, error) {
	var ks kernelStats
	if len(pairs) == 0 {
		return ks, nil
	}
	n := len(pairs)
	parities := make([][]byte, n)
	frames := make([][]byte, n)
	var nonzero, frameBytes int
	for i, p := range pairs {
		parities[i] = make([]byte, len(p.new))
		nz, err := parity.XORCountNonZero(parities[i], p.new, p.old)
		if err != nil {
			return ks, err
		}
		nonzero += nz
		if frames[i], err = xcode.AppendEncodeBest(nil, parities[i], xcode.CodecZRL); err != nil {
			return ks, err
		}
		frameBytes += len(frames[i])
		dec, err := xcode.Decode(frames[i])
		if err != nil {
			return ks, err
		}
		restored := make([]byte, len(p.new))
		if err := parity.BackwardInto(restored, dec, p.old); err != nil {
			return ks, err
		}
		if !bytes.Equal(restored, p.new) {
			return ks, fmt.Errorf("kernel round trip of pair %d does not restore the new block", i)
		}
	}
	ks.nonzeroFrac = float64(nonzero) / float64(n*len(pairs[0].new))
	ks.frameBytes = float64(frameBytes) / float64(n)

	scratch := make([]byte, len(pairs[0].new))
	frame := make([]byte, 0, 2*len(scratch))
	var sink int
	var err error
	ks.xorNs = timeEach(n, func(i int) { sink, _ = parity.XORCountNonZero(scratch, pairs[i].new, pairs[i].old) })
	ks.encodeNs = timeEach(n, func(i int) { frame, err = xcode.AppendEncodeBest(frame[:0], parities[i], xcode.CodecZRL) })
	ks.decodeNs = timeEach(n, func(i int) { _, err = xcode.Decode(frames[i]) })
	ks.backwardNs = timeEach(n, func(i int) { err = parity.BackwardInto(scratch, parities[i], pairs[i].old) })
	ks.hashNs = timeEach(n, func(i int) { sink += int(iscsi.HashBlock(pairs[i].new)) })
	_ = sink
	return ks, err
}

// timeEach calls fn over 0..n-1 repeatedly for kernelTime and returns
// the mean ns per call.
func timeEach(n int, fn func(i int)) float64 {
	calls := 0
	t0 := time.Now()
	for time.Since(t0) < kernelTime {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(calls)
}
