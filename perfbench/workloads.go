package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"prins"
	"prins/internal/memfs"
	"prins/internal/wan"
)

// workload is one benchmark scenario. Its inputs are generated from
// the seed when it is made; deployConfig describes the system it runs
// on, which the benchmark brings up (and times) several times, keeping
// the last.
type workload interface {
	deployConfig() deployConfig
	// phase drives the timed load for about dur, continuing from where
	// the previous phase stopped.
	phase(d *deployment, dur time.Duration) (*phaseLog, error)
	// check verifies the system's outputs once the load has stopped.
	check(d *deployment) []string
}

// workloadNames lists the workloads in the order "all" runs them;
// METRICS.md and BENCHMARK.json record why each exists.
var workloadNames = []string{"tpcc-wan", "fs-copy-wan", "sparse-lan", "rejoin-wan"}

func newWorkload(name string, seed int64, tmp string) (workload, error) {
	switch name {
	case "fs-copy-wan":
		return &fsCopyWAN{seed: seed}, nil
	case "sparse-lan":
		return newSparseLAN(seed), nil
	case "tpcc-wan", "rejoin-wan":
		// rejoin-wan's replica missed exactly tpcc-wan's trace.
		tr, err := genTPCC(seed, tpccWarehouses, tpccTxns)
		if err != nil {
			return nil, err
		}
		if name == "rejoin-wan" {
			return newRejoinWAN(tr), nil
		}
		return newTPCCWAN(tr, tmp), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Input sizes.
const (
	tpccWarehouses = 2
	tpccTxns       = 800  // TPC-C trace length; tpcc-wan replays it in passes
	sparseBlocks   = 8192 // 64 MiB
	fsBlocks       = 4096 // 32 MiB
)

// windowLen is about the length of the windows a client phase is cut
// into.
const windowLen = time.Second

// runClients runs one goroutine per client session until dur has
// passed, each calling step with its timed session until step returns
// false, and merges what they saw. The phase is cut into windowLen
// windows.
func runClients(d *deployment, dur time.Duration, step func(c int, s prins.Store) bool) *phaseLog {
	out := &phaseLog{}
	logs := make([]phaseLog, len(d.clients))
	t0 := time.Now()
	deadline := t0.Add(dur)
	samples := []sample{takeSample(d.clk, d.link)}
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		n := max(1, dur/windowLen)
		for k := time.Duration(1); k <= n; k++ {
			time.Sleep(time.Until(t0.Add(k * dur / n)))
			samples = append(samples, takeSample(d.clk, d.link))
		}
	}()
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(1)
		go func(i int, c prins.RemoteStore) {
			defer wg.Done()
			tc := &timedClient{RemoteStore: c, conn: int32(i), clk: d.clk, led: d.led, log: &logs[i]}
			for time.Now().Before(deadline) && step(i, tc) {
			}
		}(i, c)
	}
	wg.Wait()
	<-sampled
	for i := range logs {
		out.merge(&logs[i])
	}
	out.cutWindows(samples)
	return out
}

// lbaPart assigns each block to one of n clients, so every block's
// writes stay in order on one session.
func lbaPart(lba uint64, n int) int {
	return int((lba * 0x9E3779B97F4A7C15 >> 32) % uint64(n))
}

// tpccWAN replays a TPC-C block trace through the iSCSI front end.
type tpccWAN struct {
	tr    *tpccTrace
	tmp   string
	parts [][]int             // trace indexes per client, in trace order
	next  []int               // each client's position in its part
	last  []map[uint64][]byte // content each client last had acked, per block
}

func newTPCCWAN(tr *tpccTrace, tmp string) *tpccWAN {
	const clients = 2
	w := &tpccWAN{tr: tr, tmp: tmp, parts: make([][]int, clients), next: make([]int, clients),
		last: make([]map[uint64][]byte, clients)}
	for i, r := range tr.recs {
		p := lbaPart(r.lba, clients)
		w.parts[p] = append(w.parts[p], i)
	}
	for i := range w.last {
		w.last[i] = map[uint64][]byte{}
	}
	return w
}

func (w *tpccWAN) deployConfig() deployConfig {
	cfg := primaryConfig(false, false)
	return deployConfig{
		blocks: tpccDevice, sparse: true,
		primary: w.tr.pre.writeTo, replica: w.tr.pre.writeTo,
		journal: filepath.Join(w.tmp, "journal"), // a deployment removes it on close
		link:    wan.T3Link(), engine: &cfg, clients: len(w.parts), capture: layerPrimaryWrite,
	}
}

func (w *tpccWAN) phase(d *deployment, dur time.Duration) (*phaseLog, error) {
	return runClients(d, dur, func(c int, s prins.Store) bool {
		part := w.parts[c]
		if len(part) == 0 {
			return false
		}
		r := w.tr.recs[part[w.next[c]%len(part)]]
		w.next[c]++
		if s.WriteBlock(r.lba, r.data) == nil {
			w.last[c][r.lba] = r.data
		}
		return true
	}), nil
}

func (w *tpccWAN) check(d *deployment) []string {
	return d.checkConverged(func(lba uint64) []byte {
		if v, ok := w.last[lbaPart(lba, len(w.last))][lba]; ok {
			return v
		}
		return w.tr.pre[lba]
	})
}

// sparseLAN overwrites random runs of a pre-filled device.
type sparseLAN struct {
	img  [][]byte // the oracle: every block as last acknowledged
	gens []*sparseGen
}

func newSparseLAN(seed int64) *sparseLAN {
	const clients = 2
	w := &sparseLAN{img: sparseImage(seed, sparseBlocks)}
	for c := 0; c < clients; c++ {
		w.gens = append(w.gens, newSparseGen(seed, c, clients, sparseBlocks))
	}
	return w
}

func (w *sparseLAN) deployConfig() deployConfig {
	cfg := primaryConfig(false, false)
	fill := func(s prins.Store) error {
		for lba, b := range w.img {
			if err := s.WriteBlock(uint64(lba), b); err != nil {
				return err
			}
		}
		return nil
	}
	return deployConfig{
		blocks: sparseBlocks, primary: fill, replica: fill,
		engine: &cfg, clients: len(w.gens), capture: layerPrimaryWrite,
	}
}

func (w *sparseLAN) phase(d *deployment, dur time.Duration) (*phaseLog, error) {
	bufs := make([][]byte, len(w.gens))
	for i := range bufs {
		bufs[i] = make([]byte, blockSize)
	}
	cur := func(lba uint64) []byte { return w.img[lba] }
	return runClients(d, dur, func(c int, s prins.Store) bool {
		lba := w.gens[c].next(cur, bufs[c])
		if s.WriteBlock(lba, bufs[c]) == nil {
			copy(w.img[lba], bufs[c])
		}
		return true
	}), nil
}

func (w *sparseLAN) check(d *deployment) []string {
	return d.checkConverged(func(lba uint64) []byte { return w.img[lba] })
}

// fsCopyWAN builds a file tree on memfs through the iSCSI front end,
// copies it and tars it, round after round on a reformatted device.
type fsCopyWAN struct {
	seed   int64
	rounds int
}

// fsTree is each round's tree: the repository's default micro-benchmark
// (5 directories of 8 text files of 16 KiB), which mirrors the paper's.
var fsTree = memfs.DefaultMicroBenchmark()

func (w *fsCopyWAN) deployConfig() deployConfig {
	cfg := primaryConfig(true, true)
	return deployConfig{
		blocks: fsBlocks, sparse: true,
		link: wan.T3Link(), engine: &cfg, clients: 1, capture: layerPrimaryWrite,
	}
}

// fsRound formats s, writes a fresh text tree, copies every file into
// /copy and tars the original tree.
func fsRound(s prins.Store, seed int64, round int) error {
	fs, err := memfs.Mkfs(s)
	if err != nil {
		return err
	}
	r, err := memfs.NewMicroRunner(fs, fsTree, seed*1000+int64(round))
	if err != nil {
		return err
	}
	for _, dir := range r.Dirs() {
		entries, err := fs.ReadDir(dir)
		if err != nil {
			return err
		}
		if err := fs.MkdirAll("/copy" + dir); err != nil {
			return err
		}
		for _, e := range entries {
			data, err := fs.ReadFile(dir + "/" + e.Name)
			if err != nil {
				return err
			}
			if err := fs.WriteFile("/copy"+dir+"/"+e.Name, data); err != nil {
				return err
			}
		}
	}
	_, err = fs.Tar("/tree.tar", r.Dirs()...)
	return err
}

func (w *fsCopyWAN) phase(d *deployment, dur time.Duration) (*phaseLog, error) {
	out := &phaseLog{}
	tc := &timedClient{RemoteStore: d.clients[0], clk: d.clk, led: d.led, log: out}
	first := takeSample(d.clk, d.link)
	t0 := time.Now()
	var err error
	for time.Since(t0) < dur && err == nil {
		err = fsRound(tc, w.seed, w.rounds)
		w.rounds++
	}
	if derr := d.primary.Drain(); err == nil {
		err = derr
	}
	// One window: the rate includes the drain.
	out.cutWindows([]sample{first, takeSample(d.clk, d.link)})
	return out, err
}

// oracle replays the rounds run so far on a local device.
func (w *fsCopyWAN) oracle() (prins.Store, error) {
	s, err := prins.NewSparseStore(blockSize, fsBlocks)
	if err != nil {
		return nil, err
	}
	for r := 0; r < w.rounds; r++ {
		if err := fsRound(s, w.seed, r); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (w *fsCopyWAN) check(d *deployment) []string {
	want, err := w.oracle()
	if err != nil {
		return []string{fmt.Sprintf("oracle: %v", err)}
	}
	defer want.Close()
	buf := make([]byte, blockSize)
	fails := d.checkConverged(func(lba uint64) []byte {
		if want.ReadBlock(lba, buf) != nil {
			return nil
		}
		return buf
	})
	return append(fails, checkTree(d.replicaRaw)...)
}

// checkTree mounts a device holding a finished round and checks the
// filesystem is clean and every copy equals its original.
func checkTree(s prins.Store) []string {
	fs, err := memfs.Mount(s)
	if err != nil {
		return []string{fmt.Sprintf("mount: %v", err)}
	}
	rep, err := fs.Fsck()
	if err != nil {
		return []string{fmt.Sprintf("fsck: %v", err)}
	}
	var fails []string
	for _, p := range rep.Problems {
		fails = append(fails, "fsck: "+p)
	}
	for d := 0; d < fsTree.Dirs; d++ {
		dir := fmt.Sprintf("/dir%02d", d)
		entries, err := fs.ReadDir(dir)
		if err != nil || len(entries) != fsTree.FilesPerDir {
			fails = append(fails, fmt.Sprintf("%s: %d entries (err=%v)", dir, len(entries), err))
			continue
		}
		for _, e := range entries {
			a, aerr := fs.ReadFile(dir + "/" + e.Name)
			b, berr := fs.ReadFile("/copy" + dir + "/" + e.Name)
			if aerr != nil || berr != nil || !bytes.Equal(a, b) {
				fails = append(fails, fmt.Sprintf("copy of %s/%s differs", dir, e.Name))
			}
		}
	}
	return fails
}

// rejoinWAN resyncs a replica that missed a TPC-C run.
type rejoinWAN struct {
	tr   *tpccTrace
	post image
	diff []uint64 // blocks the replica is missing: the oracle's repair count
}

func newRejoinWAN(tr *tpccTrace) *rejoinWAN {
	w := &rejoinWAN{tr: tr, post: tr.pre.apply(tr.recs)}
	for _, lba := range w.post.sortedLBAs() {
		if !bytes.Equal(w.post[lba], tr.pre[lba]) && !(tr.pre[lba] == nil && isZero(w.post[lba])) {
			w.diff = append(w.diff, lba)
		}
	}
	return w
}

func isZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

func (w *rejoinWAN) deployConfig() deployConfig {
	return deployConfig{
		blocks: tpccDevice, sparse: true,
		primary: w.post.writeTo, replica: w.tr.pre.writeTo,
		link: wan.T3Link(), capture: layerReplicaWrite,
	}
}

func (w *rejoinWAN) phase(d *deployment, dur time.Duration) (*phaseLog, error) {
	out := &phaseLog{}
	zero := make([]byte, blockSize)
	mark := d.link.turnMark()
	var spent time.Duration
	for spent < dur {
		// The replica falls behind again: it loses the trace's writes.
		for _, lba := range w.diff {
			old := w.tr.pre[lba]
			if old == nil {
				old = zero
			}
			if err := d.replicaRaw.WriteBlock(lba, old); err != nil {
				return out, err
			}
		}
		a := takeSample(d.clk, d.link)
		st, err := prins.Resync(d.primaryStore, d.link.Addr(), exportName, false)
		b := takeSample(d.clk, d.link)
		spent += time.Duration(b.at - a.at)
		if l := d.led.Load(); l != nil {
			l.addSpan(layerClient, span{start: a.at, end: b.at, parent: 0, write: true})
		}
		out.attempted++
		if err != nil || st.BlocksRepaired != uint64(len(w.diff)) {
			out.failed++
			return out, fmt.Errorf("resync repaired %d blocks, want %d (err=%v)", st.BlocksRepaired, len(w.diff), err)
		}
		out.writes += int64(st.BlocksRepaired)
		out.resyncs = append(out.resyncs, st)
		win := newWindow(a, b)
		win.writes = int64(st.BlocksRepaired)
		out.windows = append(out.windows, win)
	}
	// A resync's block writes are the turns that carried a block. Most
	// of such a turn is the link's configured delay and transfer time;
	// the replica's part alone, mostly goroutine wake-ups, moves too
	// much with the host's load to gate (see METRICS.md).
	d.link.settle()
	for _, t := range d.link.TurnsSince(mark) {
		if t.fwd < blockSize {
			continue
		}
		out.writeLat = append(out.writeLat, t.end-t.start)
		for i := range out.windows {
			if w := &out.windows[i]; t.start >= w.from && t.start < w.to {
				w.writeLat = append(w.writeLat, t.end-t.start)
			}
		}
	}
	return out, nil
}

func (w *rejoinWAN) check(d *deployment) []string {
	var fails []string
	st, err := prins.Resync(d.primaryStore, d.link.Addr(), exportName, true)
	if err != nil || st.BlocksRepaired != 0 {
		fails = append(fails, fmt.Sprintf("follow-up dry run finds %d differing blocks (err=%v)", st.BlocksRepaired, err))
	}
	return append(fails, d.checkConverged(func(lba uint64) []byte { return w.post[lba] })...)
}
