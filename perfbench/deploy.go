package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"prins"
	"prins/internal/wan"
)

// exportName is the volume every node serves.
const exportName = "vol0"

// primaryConfig is the prinsd default replication configuration:
// PRINS mode, one shard, 32-frame batches, a 256-deep ship queue, no
// flush window and verified applies. A failed push fails the write
// instead of degrading, so the benchmark sees every failure.
func primaryConfig(async, dedupe bool) prins.Config {
	cfg := prins.Config{
		Mode:          prins.ModePRINS,
		Async:         async,
		QueueDepth:    256,
		SkipUnchanged: true,
		RecordDensity: true,
		Shards:        1,
		BatchFrames:   32,
		BatchBytes:    1 << 20,
		FlushFrames:   64,
		RetryAttempts: 3,
		RetryTimeout:  10 * time.Second,
		RetryBackoff:  250 * time.Millisecond,
	}
	if dedupe {
		cfg.DedupeEntries = -1
	}
	return cfg
}

// deployConfig describes one deployment of the paper's system.
type deployConfig struct {
	blocks  uint64
	sparse  bool                    // thin-provisioned stores
	primary func(prins.Store) error // fills the primary's store
	replica func(prins.Store) error // fills the replica's store
	journal string                  // replica journal file; empty for none
	link    wan.LinkConfig
	engine  *prins.Config // primary engine; nil runs no primary engine
	clients int           // client sessions through the iSCSI front end
	capture layer         // store whose writes feed the kernel replay
}

// deployment is a running primary, link and replica in this process:
// clients → iSCSI front end (Primary.Serve) → engine → store, and
// engine → Link → Replica.Serve → store.
type deployment struct {
	clk *clock
	led *atomic.Pointer[ledger] // the traced run's ledger; nil while untraced

	primaryRaw, replicaRaw     prins.Store // the stores themselves, below the wrappers
	primaryStore, replicaStore *tracedStore
	replica                    *prins.Replica
	link                       *Link
	primary                    *prins.Primary
	clients                    []prins.RemoteStore
	journal                    string
}

func newStore(sparse bool, blocks uint64) (prins.Store, error) {
	if sparse {
		return prins.NewSparseStore(blockSize, blocks)
	}
	return prins.NewMemStore(blockSize, blocks)
}

// deploy brings the system up. On error everything started is stopped.
func deploy(cfg deployConfig, clk *clock) (d *deployment, err error) {
	d = &deployment{clk: clk, led: new(atomic.Pointer[ledger]), journal: cfg.journal}
	defer func() {
		if err != nil {
			_ = d.close() // the deploy error is the one to report
			d = nil
		}
	}()
	if d.primaryRaw, err = newStore(cfg.sparse, cfg.blocks); err != nil {
		return
	}
	if d.replicaRaw, err = newStore(cfg.sparse, cfg.blocks); err != nil {
		return
	}
	for _, fill := range []struct {
		f func(prins.Store) error
		s prins.Store
	}{{cfg.primary, d.primaryRaw}, {cfg.replica, d.replicaRaw}} {
		if fill.f != nil {
			if err = fill.f(fill.s); err != nil {
				return
			}
		}
	}
	d.primaryStore = &tracedStore{Store: d.primaryRaw, read: layerPrimaryRead, write: layerPrimaryWrite,
		capture: cfg.capture == layerPrimaryWrite, clock: clk, led: d.led}
	d.replicaStore = &tracedStore{Store: d.replicaRaw, read: layerReplicaRead, write: layerReplicaWrite,
		capture: cfg.capture == layerReplicaWrite, clock: clk, led: d.led}

	if cfg.journal != "" {
		if d.replica, err = prins.NewReplicaJournaled(d.replicaStore, cfg.journal); err != nil {
			return
		}
	} else {
		d.replica = prins.NewReplica(d.replicaStore)
	}
	replicaAddr, err := d.replica.Serve("127.0.0.1:0", exportName)
	if err != nil {
		return
	}
	if d.link, err = listenLink(replicaAddr.String(), cfg.link, clk, d.led); err != nil {
		return
	}
	if cfg.engine == nil {
		return
	}
	if d.primary, err = prins.NewPrimary(d.primaryStore, *cfg.engine); err != nil {
		return
	}
	if err = d.primary.AttachReplicaAddr(d.link.Addr(), exportName); err != nil {
		return
	}
	front, err := d.primary.Serve("127.0.0.1:0", exportName)
	if err != nil {
		return
	}
	for i := 0; i < cfg.clients; i++ {
		c, derr := prins.Dial(front.String(), exportName)
		if derr != nil {
			err = derr
			return
		}
		d.clients = append(d.clients, c)
	}
	return
}

// stats is the primary engine's counters, zero without an engine.
func (d *deployment) stats() prins.Stats {
	if d.primary == nil {
		return prins.Stats{}
	}
	return d.primary.Stats()
}

// close stops every node and waits for their goroutines. It reports
// the first error, though teardown carries on past it.
func (d *deployment) close() error {
	var errs []error
	for _, c := range d.clients {
		errs = append(errs, c.Logout(), c.Close())
	}
	if d.primary != nil {
		errs = append(errs, d.primary.Close())
	}
	if d.link != nil {
		errs = append(errs, d.link.Close())
	}
	if d.replica != nil {
		errs = append(errs, d.replica.Close())
	}
	for _, s := range []prins.Store{d.primaryRaw, d.replicaRaw} {
		if s != nil {
			errs = append(errs, s.Close())
		}
	}
	if d.journal != "" {
		if err := os.Remove(d.journal); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// checkConverged drains replication and checks the invariants every
// replicating workload shares: replica = primary = the oracle image,
// and no frame diverged or was dropped.
func (d *deployment) checkConverged(oracle func(lba uint64) []byte) []string {
	var fails []string
	if d.primary != nil {
		if err := d.primary.Drain(); err != nil {
			fails = append(fails, fmt.Sprintf("drain: %v", err))
		}
		st := d.primary.Stats()
		if st.Diverged != 0 || st.Dropped != 0 {
			fails = append(fails, fmt.Sprintf("engine diverged=%d dropped=%d", st.Diverged, st.Dropped))
		}
	}
	if n := d.replica.Diverged(); n != 0 {
		fails = append(fails, fmt.Sprintf("replica refused %d applies", n))
	}
	if eq, err := prins.Equal(d.primaryRaw, d.replicaRaw); err != nil || !eq {
		fails = append(fails, fmt.Sprintf("replica differs from primary (err=%v)", err))
	}
	if lba, ok := matchImage(d.primaryRaw, oracle); !ok {
		fails = append(fails, fmt.Sprintf("primary differs from the oracle image at block %d", lba))
	}
	return fails
}

// matchImage compares every block of s with the oracle's content for
// it (nil meaning zeros), returning the first differing block.
func matchImage(s prins.Store, oracle func(lba uint64) []byte) (uint64, bool) {
	buf := make([]byte, s.BlockSize())
	zero := make([]byte, s.BlockSize())
	for lba := uint64(0); lba < s.NumBlocks(); lba++ {
		if err := s.ReadBlock(lba, buf); err != nil {
			return lba, false
		}
		want := oracle(lba)
		if want == nil {
			want = zero
		}
		if !bytes.Equal(buf, want) {
			return lba, false
		}
	}
	return 0, true
}
