package prins_test

import (
	"bytes"
	"math/rand"
	"testing"

	"prins"
)

func TestPublicAPIInProcess(t *testing.T) {
	for _, mode := range []prins.Mode{prins.ModeTraditional, prins.ModeCompressed, prins.ModePRINS} {
		t.Run(mode.String(), func(t *testing.T) {
			local, err := prins.NewMemStore(4096, 64)
			if err != nil {
				t.Fatal(err)
			}
			replicaStore, err := prins.NewMemStore(4096, 64)
			if err != nil {
				t.Fatal(err)
			}
			replica := prins.NewReplica(replicaStore)
			primary, err := prins.NewPrimary(local, prins.Config{Mode: mode, RecordDensity: mode == prins.ModePRINS})
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			primary.AttachReplica(replica)

			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, 4096)
			for i := 0; i < 100; i++ {
				lba := uint64(rng.Intn(64))
				if err := primary.ReadBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
				off := rng.Intn(3500)
				rng.Read(buf[off : off+400])
				if err := primary.WriteBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := primary.Drain(); err != nil {
				t.Fatal(err)
			}

			eq, err := prins.Equal(primary, replica.Store())
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("replica diverged")
			}

			s := primary.Stats()
			if s.Writes != 100 || s.Replicated != 100 {
				t.Errorf("stats: %+v", s)
			}
			if mode == prins.ModePRINS {
				if s.SavingsVsRaw < 3 {
					t.Errorf("PRINS savings = %.1fx, want > 3x", s.SavingsVsRaw)
				}
				if s.MeanChangedFraction <= 0 || s.MeanChangedFraction > 0.3 {
					t.Errorf("mean changed fraction = %.3f", s.MeanChangedFraction)
				}
			}
			if replica.AppliedWrites() != 100 {
				t.Errorf("replica applied %d", replica.AppliedWrites())
			}
		})
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	// Replica node.
	replicaStore, err := prins.NewMemStore(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	replica := prins.NewReplica(replicaStore)
	rAddr, err := replica.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Primary node replicating to it.
	local, err := prins.NewMemStore(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.AttachReplicaAddr(rAddr.String(), "vol0"); err != nil {
		t.Fatal(err)
	}
	pAddr, err := primary.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}

	// Application mounts the primary remotely.
	app, err := prins.Dial(pAddr.String(), "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if app.BlockSize() != 1024 || app.NumBlocks() != 32 {
		t.Fatalf("mounted geometry %d x %d", app.NumBlocks(), app.BlockSize())
	}

	data := bytes.Repeat([]byte{0x42}, 1024)
	for lba := uint64(0); lba < 8; lba++ {
		data[0] = byte(lba)
		if err := app.WriteBlock(lba, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}

	eq, err := prins.Equal(local, replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("replica diverged across TCP")
	}
	if err := app.Logout(); err != nil {
		t.Fatal(err)
	}

	// Geometry mismatch detection.
	tiny, _ := prins.NewMemStore(512, 8)
	p2, err := prins.NewPrimary(tiny, prins.Config{Mode: prins.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.AttachReplicaAddr(rAddr.String(), "vol0"); err == nil {
		t.Error("mismatched geometry attach accepted")
	}
}

func TestInitialSync(t *testing.T) {
	local, _ := prins.NewMemStore(512, 16)
	// Pre-populate the primary before replication is set up.
	seed := bytes.Repeat([]byte{7}, 512)
	for lba := uint64(0); lba < 16; lba++ {
		if err := local.WriteBlock(lba, seed); err != nil {
			t.Fatal(err)
		}
	}

	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replicaStore, _ := prins.NewMemStore(512, 16)
	replica := prins.NewReplica(replicaStore)

	// Without the initial sync, PRINS parity would reconstruct against
	// the wrong old data. With it, everything converges.
	if err := primary.InitialSync(replica); err != nil {
		t.Fatal(err)
	}
	primary.AttachReplica(replica)

	update := bytes.Repeat([]byte{9}, 512)
	if err := primary.WriteBlock(3, update); err != nil {
		t.Fatal(err)
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	eq, _ := prins.Equal(primary, replica.Store())
	if !eq {
		t.Fatal("replica diverged after initial sync + update")
	}
}

func TestBadConfig(t *testing.T) {
	local, _ := prins.NewMemStore(512, 8)
	if _, err := prins.NewPrimary(local, prins.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := prins.Dial("127.0.0.1:1", "x"); err == nil {
		t.Error("dial to dead port succeeded")
	}
	replicaStore, _ := prins.NewMemStore(512, 8)
	replica := prins.NewReplica(replicaStore)
	addr, err := replica.Serve("127.0.0.1:0", "real")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := prins.Dial(addr.String(), "wrong-name"); err == nil {
		t.Error("dial to wrong export succeeded")
	}
}

// TestResilientReplicaBatchesAndDedupe: a resilient replica session is
// a full replica client. It carries batched pushes, ships repeated
// content by reference, and heals a block that rotted on the replica
// in place — the refused entry is repaired by a ranged resync on the
// live session, so the engine sees it delivered and nothing is left
// dirty.
func TestResilientReplicaBatchesAndDedupe(t *testing.T) {
	const bs, nb = 1024, 64
	replicaStore, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	replica := prins.NewReplica(replicaStore)
	rAddr, err := replica.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	local, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := prins.NewPrimary(local, prins.Config{
		Mode: prins.ModePRINS, Async: true, BatchFrames: 32, DedupeEntries: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.AttachReplicaResilient(rAddr.String(), "vol0"); err != nil {
		t.Fatal(err)
	}

	// Repeated content from a small pool: backlog forms batches, and
	// content the replica already holds ships by reference.
	pool := make([][]byte, 4)
	for i := range pool {
		pool[i] = bytes.Repeat([]byte{byte(0x10 + i)}, bs)
	}
	for i := 0; i < 400; i++ {
		if err := primary.WriteBlock(uint64(i*7%nb), pool[i%len(pool)]); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}

	// Rot one block on the replica, then write a burst of fresh content
	// with that block in the middle: its PRINS apply no longer verifies.
	const rotted = 10
	if err := replicaStore.WriteBlock(rotted, bytes.Repeat([]byte{0xEE}, bs)); err != nil {
		t.Fatal(err)
	}
	for lba := uint64(0); lba < 21; lba++ {
		data := bytes.Repeat([]byte{byte(lba)}, bs)
		data[0], data[1] = 0xA5, byte(lba+1)
		if err := primary.WriteBlock(lba, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}

	st := primary.Stats()
	if st.Batches == 0 {
		t.Error("no batched push: the resilient session must batch")
	}
	if st.DedupeHits == 0 {
		t.Error("no by-ref hit on repeated content: the resilient session must ship by reference")
	}
	if replica.Diverged() == 0 {
		t.Error("the rotted block's apply was never refused")
	}
	if st.Diverged != 0 || len(primary.DirtyRanges(0)) != 0 {
		t.Errorf("rot healed in place should leave nothing dirty: diverged %d, dirty %v",
			st.Diverged, primary.DirtyRanges(0))
	}
	eq, err := prins.Equal(local, replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("replica differs from primary after the in-place heal")
	}
}
