package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"prins"
)

// clock is the benchmark's monotonic time base, in nanoseconds.
type clock struct{ base time.Time }

func newClock() *clock { return &clock{base: time.Now()} }

func (c *clock) now() int64 { return int64(time.Since(c.base)) }

// layer names a boundary the benchmark records spans at.
type layer uint8

const (
	layerClient       layer = iota // a client's block op, or one resync run
	layerPrimaryRead               // the primary's store
	layerPrimaryWrite              //
	layerReplicaRead               // the replica's store
	layerReplicaWrite              //
	layerLink                      // one request/response turn on the link
	numLayers
)

var layerNames = [numLayers]string{"client", "block.primary.read", "block.primary.write",
	"block.replica.read", "block.replica.write", "link"}

// span is one timed call at a layer boundary. parent is the client
// connection the call was issued on, where the benchmark knows it
// (client spans), and -1 otherwise.
type span struct {
	start, end int64
	parent     int32
	write      bool
}

// ledger holds the spans of a traced run in memory until the run
// writes them out.
type ledger struct {
	mu    [numLayers]sync.Mutex
	spans [numLayers][]span

	pairMu   sync.Mutex
	pairs    []pair // captured (old, new) block pairs for the kernel replay
	maxPairs int
}

// pair is a block write's content before and after.
type pair struct{ old, new []byte }

func newLedger(maxPairs int) *ledger { return &ledger{maxPairs: maxPairs} }

func (l *ledger) add(ly layer, start, end int64) {
	l.addSpan(ly, span{start: start, end: end, parent: -1})
}

func (l *ledger) addSpan(ly layer, s span) {
	l.mu[ly].Lock()
	l.spans[ly] = append(l.spans[ly], s)
	l.mu[ly].Unlock()
}

// wantPair reports whether another (old, new) pair should be captured.
func (l *ledger) wantPair() bool {
	l.pairMu.Lock()
	defer l.pairMu.Unlock()
	return len(l.pairs) < l.maxPairs
}

func (l *ledger) addPair(old, new []byte) {
	l.pairMu.Lock()
	if len(l.pairs) < l.maxPairs {
		l.pairs = append(l.pairs, pair{old, new})
	}
	l.pairMu.Unlock()
}

// meanUS is the mean span duration of a layer, in microseconds.
func (l *ledger) meanUS(ly layer) float64 {
	s := l.spans[ly]
	if len(s) == 0 {
		return 0
	}
	var sum int64
	for _, x := range s {
		sum += x.end - x.start
	}
	return float64(sum) / float64(len(s)) / 1e3
}

// selfTime sums, over the client write spans, each span's duration
// minus the part of its interval that store and link spans cover: the
// time spent in the layers between them (the iSCSI front end and the
// replication engine, or the resync logic).
func (l *ledger) selfTime() time.Duration {
	var children []span
	for _, ly := range []layer{layerPrimaryRead, layerPrimaryWrite, layerReplicaRead, layerReplicaWrite, layerLink} {
		children = append(children, l.spans[ly]...)
	}
	merged := mergeSpans(children)
	// prefix[i] is the covered length of merged[:i].
	prefix := make([]int64, len(merged)+1)
	for i, m := range merged {
		prefix[i+1] = prefix[i] + m.end - m.start
	}
	var self int64
	for _, c := range l.spans[layerClient] {
		if !c.write {
			continue
		}
		self += (c.end - c.start) - covered(merged, prefix, c.start, c.end)
	}
	return time.Duration(self)
}

// mergeSpans returns the union of spans as sorted disjoint intervals.
func mergeSpans(in []span) []span {
	s := append([]span(nil), in...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var out []span
	for _, x := range s {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, span{start: x.start, end: x.end})
	}
	return out
}

// covered is the length of [a, b) that the merged intervals cover.
func covered(merged []span, prefix []int64, a, b int64) int64 {
	// First interval ending after a, and first starting at or after b.
	i := sort.Search(len(merged), func(k int) bool { return merged[k].end > a })
	j := sort.Search(len(merged), func(k int) bool { return merged[k].start >= b })
	if i >= j {
		return 0
	}
	total := prefix[j] - prefix[i]
	if merged[i].start < a {
		total -= a - merged[i].start
	}
	if merged[j-1].end > b {
		total -= merged[j-1].end - b
	}
	return total
}

// writeOut saves every span as tab-separated text: layer, start and end
// in nanoseconds of the run's clock, parent connection, op.
func (l *ledger) writeOut(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\tstart_ns\tend_ns\tparent\top")
	for ly := layer(0); ly < numLayers; ly++ {
		for _, s := range l.spans[ly] {
			op := "read"
			if s.write {
				op = "write"
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%s\n", layerNames[ly], s.start, s.end, s.parent, op)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

// tracedStore wraps one side's store and, while a ledger is installed,
// records a span around every block read and write. When asked to, it
// also captures writes' (old, new) content for the kernel replay.
type tracedStore struct {
	prins.Store
	read, write layer
	capture     bool
	clock       *clock
	led         *atomic.Pointer[ledger]
}

func (s *tracedStore) ReadBlock(lba uint64, buf []byte) error {
	l := s.led.Load()
	if l == nil {
		return s.Store.ReadBlock(lba, buf)
	}
	t0 := s.clock.now()
	err := s.Store.ReadBlock(lba, buf)
	l.addSpan(s.read, span{start: t0, end: s.clock.now(), parent: -1})
	return err
}

func (s *tracedStore) WriteBlock(lba uint64, data []byte) error {
	l := s.led.Load()
	if l == nil {
		return s.Store.WriteBlock(lba, data)
	}
	if s.capture && l.wantPair() {
		old := make([]byte, len(data))
		if err := s.Store.ReadBlock(lba, old); err == nil {
			l.addPair(old, append([]byte(nil), data...))
		}
	}
	t0 := s.clock.now()
	err := s.Store.WriteBlock(lba, data)
	l.addSpan(s.write, span{start: t0, end: s.clock.now(), parent: -1, write: true})
	return err
}

// percentile returns the p-quantile (0..1) of sorted values by the
// nearest-rank rule.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
