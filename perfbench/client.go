package main

import (
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"prins"
)

// phaseLog is what one timed phase measured.
type phaseLog struct {
	writes            int64   // completed writes; rejoin-wan counts repaired blocks
	writeAt, writeLat []int64 // each write's completion (clock ns) and client-observed latency (ns)
	readLat           []int64
	attempted, failed int64
	windows           []window // the slices end-to-end metrics take medians over
	resyncs           []prins.ResyncStats

	engine0, engine1     prins.Stats // engine counters at the phase's ends
	turnMark0, turnMark1 int         // the phase's turns in the link's record
}

func (p *phaseLog) merge(o *phaseLog) {
	p.writes += o.writes
	p.writeAt = append(p.writeAt, o.writeAt...)
	p.writeLat = append(p.writeLat, o.writeLat...)
	p.readLat = append(p.readLat, o.readLat...)
	p.attempted += o.attempted
	p.failed += o.failed
}

// window is one slice of a timed phase: a fixed stretch of time, or
// one whole resync.
type window struct {
	from, to int64 // clock ns
	cpu      time.Duration
	link     linkCounters
	writes   int64
	writeLat []int64
}

// sample is the process CPU and the link's totals at one instant.
type sample struct {
	at   int64
	cpu  time.Duration
	link linkCounters
}

func takeSample(clk *clock, link *Link) sample {
	return sample{at: clk.now(), cpu: processCPU(), link: link.Counters()}
}

func newWindow(a, b sample) window {
	return window{from: a.at, to: b.at, cpu: b.cpu - a.cpu, link: b.link.sub(a.link)}
}

// cutWindows splits the phase at the samples, assigning each write to
// the window it completed in.
func (p *phaseLog) cutWindows(samples []sample) {
	for k := 1; k < len(samples); k++ {
		a, b := samples[k-1], samples[k]
		w := newWindow(a, b)
		for i, at := range p.writeAt {
			if at >= a.at && at < b.at {
				w.writes++
				w.writeLat = append(w.writeLat, p.writeLat[i])
			}
		}
		p.windows = append(p.windows, w)
	}
}

func (a linkCounters) add(b linkCounters) linkCounters {
	return linkCounters{a.fwdBytes + b.fwdBytes, a.revBytes + b.revBytes, a.turns + b.turns, a.shaperWait + b.shaperWait}
}

// total sums the phase's windows: timed wall time, process CPU and
// link traffic.
func (p *phaseLog) total() (elapsed, cpu time.Duration, link linkCounters) {
	for _, w := range p.windows {
		elapsed += time.Duration(w.to - w.from)
		cpu += w.cpu
		link = link.add(w.link)
	}
	return elapsed, cpu, link
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the
// process's peak resident set count, so the peak excludes input
// generation. Where the kernel does not allow it, the peak covers the
// whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set size in MiB since
// resetPeakRSS.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// timedClient is a client session that times every block op it
// issues, and records it as a client span while a ledger is installed.
type timedClient struct {
	prins.RemoteStore
	conn int32
	clk  *clock
	led  *atomic.Pointer[ledger]
	log  *phaseLog
}

func (c *timedClient) WriteBlock(lba uint64, data []byte) error {
	t0 := c.clk.now()
	err := c.RemoteStore.WriteBlock(lba, data)
	c.done(t0, true, err)
	return err
}

func (c *timedClient) ReadBlock(lba uint64, buf []byte) error {
	t0 := c.clk.now()
	err := c.RemoteStore.ReadBlock(lba, buf)
	c.done(t0, false, err)
	return err
}

func (c *timedClient) done(t0 int64, write bool, err error) {
	t1 := c.clk.now()
	c.log.attempted++
	switch {
	case err != nil:
		c.log.failed++
	case write:
		c.log.writes++
		c.log.writeAt = append(c.log.writeAt, t1)
		c.log.writeLat = append(c.log.writeLat, t1-t0)
	default:
		c.log.readLat = append(c.log.readLat, t1-t0)
	}
	if l := c.led.Load(); l != nil {
		l.addSpan(layerClient, span{start: t0, end: t1, parent: c.conn, write: write})
	}
}
