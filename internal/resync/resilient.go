package resync

import (
	"fmt"
	"sync"

	"prins/internal/block"
	"prins/internal/iscsi"
)

// ResilientClient is a replication client that survives connection
// loss: when a push fails it re-dials the replica, logs in again, and
// — because pushes were lost while the session was down — runs a
// hash-based delta resync from the authoritative local store before
// resuming. This turns the engine's fail-stop replication into
// self-healing replication while preserving PRINS's precondition that
// the replica holds the correct A_old.
type ResilientClient struct {
	addr   string
	export string
	local  block.Store

	mu        sync.Mutex
	conn      *iscsi.Initiator
	reconnect int64
	repaired  int64
}

// NewResilientClient dials the replica and returns a client that will
// transparently reconnect and resync on failure. local is the
// authoritative device replicated from.
func NewResilientClient(local block.Store, addr, export string) (*ResilientClient, error) {
	c := &ResilientClient{addr: addr, export: export, local: local}
	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.conn = conn
	return c, nil
}

func (c *ResilientClient) dial() (*iscsi.Initiator, error) {
	conn, err := iscsi.Dial(c.addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Login(c.export); err != nil {
		_ = conn.Close()
		return nil, err
	}
	if conn.BlockSize() != c.local.BlockSize() || conn.NumBlocks() < c.local.NumBlocks() {
		_ = conn.Close()
		return nil, fmt.Errorf("%w: replica %s", ErrGeometry, c.addr)
	}
	return conn, nil
}

// Push implements the engine's ReplicaClient contract over a session
// that heals itself.
//
// An entry the replica refused as diverged is healed in place: the
// replica verified the frame and found its own block wrong, so the
// session is fine — the diverged blocks are repaired with one ranged
// resync over their LBAs on the live connection and reported OK. The
// local store already holds their new content, making the refused
// entries redundant; they must NOT be re-applied on top of the repair
// in PRINS mode, where the extra XOR would corrupt the block. Every
// other per-entry status (a by-ref miss the engine re-ships, a decode
// or store failure) passes through.
//
// A transport failure — or a failed in-place heal — reconnects, runs a
// full delta resync of the local device, and reports every entry OK:
// the resync covered this push's writes too, and re-applying them on
// top of it would double-XOR. A sharded or multi-volume engine's
// streams all heal at once this way; the per-stream dedupe cursors on
// the replica make the subsequent redeliveries no-ops.
func (c *ResilientClient) Push(hdr iscsi.PushHeader, entries []iscsi.BatchEntry) ([]iscsi.Status, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	if c.conn != nil {
		//lint:ignore hold-blocking c.mu serializes pushes and heals on one session; the push's wire I/O under it is the design
		statuses, err := c.conn.Push(hdr, entries)
		if err == nil {
			var diverged []block.Range
			for k, st := range statuses {
				if st == iscsi.StatusDiverged {
					diverged = append(diverged, block.Range{Start: entries[k].LBA, Count: 1})
				}
			}
			if len(diverged) == 0 {
				return statuses, nil
			}
			//lint:ignore hold-blocking c.mu serializes push and heal on one session; repair I/O under it is the design
			stats, rerr := RunRanges(c.local, c.conn, Config{}, diverged...)
			if rerr == nil {
				c.repaired += int64(stats.BlocksRepaired)
				for k, st := range statuses {
					if st == iscsi.StatusDiverged {
						statuses[k] = iscsi.StatusOK
					}
				}
				return statuses, nil
			}
			// Repair failed; fall through to reconnect + full resync.
		}
		_ = c.conn.Close()
		c.conn = nil
	}

	// Reconnect and heal the gap. The resync covers this push's writes
	// too (the local store already holds them), so after a successful
	// repair the push itself is redundant — but it must not be applied
	// on top of the repaired state in PRINS mode, where re-XORing a
	// parity would corrupt the block. Resync-then-skip is the correct
	// sequence.
	//lint:ignore hold-blocking reconnect is serialized under the session lock so pushes cannot interleave with the heal
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("resync: reconnect %s: %w", c.addr, err)
	}
	c.reconnect++
	//lint:ignore hold-blocking the full resync runs under the session lock for the same reason
	stats, err := Run(c.local, conn, Config{})
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("resync: heal after reconnect: %w", err)
	}
	c.repaired += int64(stats.BlocksRepaired)
	c.conn = conn
	return make([]iscsi.Status, len(entries)), nil
}

// Reconnects returns how many times the session was re-established.
func (c *ResilientClient) Reconnects() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reconnect
}

// Repaired returns the total blocks healed by post-reconnect resyncs.
func (c *ResilientClient) Repaired() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.repaired
}

// Close severs the session.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
