package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"prins/internal/wan"
)

// turn is one request/response exchange the link carried: client bytes
// forwarded, then the upstream's answer returned.
type turn struct {
	start, end int64 // ledger clock: first request byte read, last response byte delivered
	service    int64 // last request byte delivered to first response byte read
	fwd, rev   int64 // bytes each way
}

// linkCounters is a snapshot of a link's running totals.
type linkCounters struct {
	fwdBytes, revBytes int64
	turns              int64
	shaperWait         time.Duration
}

func (a linkCounters) sub(b linkCounters) linkCounters {
	return linkCounters{a.fwdBytes - b.fwdBytes, a.revBytes - b.revBytes, a.turns - b.turns, a.shaperWait - b.shaperWait}
}

// Link is the WAN between the primary and the replica: a loopback TCP
// proxy that forwards every connection to upstream through wan.Shape
// in each direction and counts the bytes and request/response turns it
// carries. With a zero LinkConfig it forwards unshaped.
type Link struct {
	cfg      wan.LinkConfig
	upstream string
	ln       net.Listener
	clock    *clock
	led      *atomic.Pointer[ledger]

	fwdBytes, revBytes atomic.Int64
	turnCount          atomic.Int64
	shaperWait         atomic.Int64

	mu     sync.Mutex
	turns  []turn
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// listenLink starts a link on a loopback port in front of upstream.
// Completed turns are also recorded as spans in the ledger led points
// at, when it points at one.
func listenLink(upstream string, cfg wan.LinkConfig, clk *clock, led *atomic.Pointer[ledger]) (*Link, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &Link{cfg: cfg, upstream: upstream, ln: ln, clock: clk, led: led, conns: map[net.Conn]struct{}{}}
	l.wg.Add(1)
	go l.accept()
	return l, nil
}

// Addr is where clients of the link connect.
func (l *Link) Addr() string { return l.ln.Addr().String() }

func (l *Link) accept() {
	defer l.wg.Done()
	for {
		c, err := l.ln.Accept()
		if err != nil {
			return
		}
		// Closing a connection the link never forwarded on has nothing
		// to report.
		up, err := net.Dial("tcp", l.upstream)
		if err != nil {
			_ = c.Close()
			continue
		}
		if !l.track(c, up) {
			_ = c.Close()
			_ = up.Close()
			return
		}
		p := &pipe{link: l}
		l.wg.Add(2)
		go p.pump(c, l.shape(up, func() { p.delivering(true) }), true)
		go p.pump(up, l.shape(c, func() { p.delivering(false) }), false)
	}
}

func (l *Link) track(conns ...net.Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	for _, c := range conns {
		l.conns[c] = struct{}{}
	}
	return true
}

// shape wraps the sending side of one direction, accounting the time
// the shaper holds data back. The shaper sleeps before it writes, so
// woke runs just before the held data goes out.
func (l *Link) shape(c net.Conn, woke func()) *wan.ShapedConn {
	sc := wan.Shape(c, l.cfg)
	var s sleeper
	sc.SetSleep(func(d time.Duration) {
		l.shaperWait.Add(int64(s.sleep(d)))
		woke()
	})
	return sc
}

// maxDebt bounds how much oversleep a sleeper carries forward.
const maxDebt = 5 * time.Millisecond

// sleeper keeps one direction's delays right on average. The host's
// timer wakes a sleep late, by about 0.2 ms typically and by several
// ms when the machine is busy; a sleeper pays each late wake back by
// shortening the delays after it, so the link's mean delay stays the
// configured one however loaded the host is. One goroutine uses it.
type sleeper struct{ debt time.Duration }

// sleep holds for d less the debt and returns the time actually slept.
func (s *sleeper) sleep(d time.Duration) time.Duration {
	if s.debt >= d {
		s.debt -= d
		return 0
	}
	want := d - s.debt
	t0 := time.Now()
	time.Sleep(want)
	slept := time.Since(t0)
	s.debt = min(slept-want, maxDebt)
	return slept
}

// Counters snapshots the running totals.
func (l *Link) Counters() linkCounters {
	return linkCounters{
		fwdBytes:   l.fwdBytes.Load(),
		revBytes:   l.revBytes.Load(),
		turns:      l.turnCount.Load(),
		shaperWait: time.Duration(l.shaperWait.Load()),
	}
}

// turnMark is how many turns have completed; TurnsSince takes it.
func (l *Link) turnMark() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.turns)
}

// settle waits, up to a second, until every counted turn is recorded.
// A connection's last turn is recorded when the connection closes,
// which the link sees a moment after the client has moved on.
func (l *Link) settle() {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if int64(l.turnMark()) == l.turnCount.Load() {
			return
		}
	}
}

// TurnsSince returns the turns completed after mark.
func (l *Link) TurnsSince(mark int) []turn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]turn(nil), l.turns[mark:]...)
}

func (l *Link) record(t turn) {
	l.mu.Lock()
	l.turns = append(l.turns, t)
	l.mu.Unlock()
	if led := l.led.Load(); led != nil {
		led.add(layerLink, t.start, t.end)
	}
}

// Close stops accepting, tears down every forwarded connection and
// waits for the forwarding goroutines to end.
func (l *Link) Close() error {
	l.mu.Lock()
	l.closed = true
	for c := range l.conns {
		_ = c.Close() // tearing down: the pumps see the close and end
	}
	l.mu.Unlock()
	err := l.ln.Close()
	l.wg.Wait()
	return err
}

// pipe tracks the turn in progress on one forwarded connection. Times
// are taken when data goes out, which the shaper reports after holding
// it back: the peer cannot react before then, so a turn is complete
// before the next request can end it.
type pipe struct {
	link *Link

	mu       sync.Mutex
	open     bool // request bytes seen since the last completed turn
	answered bool // the upstream has started answering
	seq      int  // numbers the turns
	revSeq   int  // the turn the response being forwarded belongs to
	cur      turn
	fwdDone  int64 // when the latest request bytes went to the upstream
}

// pump copies src to dst until either side fails. forward marks the
// client-to-upstream direction.
func (p *pipe) pump(src net.Conn, dst *wan.ShapedConn, forward bool) {
	l := p.link
	defer l.wg.Done()
	buf := make([]byte, 256<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if forward {
				p.request(l.clock.now(), n)
			} else {
				p.response(l.clock.now(), n)
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				err = werr
			}
		}
		if err != nil {
			p.finish()
			// The pipe is over either way; a second close just fails.
			_ = src.Close()
			_ = dst.Close()
			return
		}
	}
}

// request notes n request bytes arriving at now. If the previous turn
// was answered, it is complete and recorded.
func (p *pipe) request(now int64, n int) {
	p.link.fwdBytes.Add(int64(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.answered {
		p.link.record(p.cur)
		p.open, p.answered = false, false
	}
	if !p.open {
		p.open = true
		p.seq++
		p.cur = turn{start: now}
	}
	p.cur.fwd += int64(n)
	p.fwdDone = now
}

// response notes n response bytes arriving at now; the first after a
// request starts the answer and counts the turn.
func (p *pipe) response(now int64, n int) {
	p.link.revBytes.Add(int64(n))
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open && !p.answered {
		p.answered = true
		p.cur.service = now - p.fwdDone
		p.link.turnCount.Add(1)
	}
	p.cur.rev += int64(n)
	p.cur.end = now
	p.revSeq = p.seq
}

// delivering notes that held data in one direction is going out now.
func (p *pipe) delivering(forward bool) {
	now := p.link.clock.now()
	p.mu.Lock()
	defer p.mu.Unlock()
	if forward {
		p.fwdDone = now
	} else if p.revSeq == p.seq {
		p.cur.end = now
	}
}

// finish records the last turn when the connection ends.
func (p *pipe) finish() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.answered {
		p.link.record(p.cur)
		p.open, p.answered = false, false
	}
}
