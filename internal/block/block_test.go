package block

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
)

// storeFactories builds each Store implementation with one geometry so
// the conformance tests run against all of them.
func storeFactories(t *testing.T, blockSize int, numBlocks uint64) map[string]Store {
	t.Helper()
	mem, err := NewMem(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	sparse, err := NewSparse(blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	file, err := CreateFile(filepath.Join(t.TempDir(), "dev.img"), blockSize, numBlocks)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{"mem": mem, "sparse": sparse, "file": file}
}

func TestStoreConformance(t *testing.T) {
	const (
		blockSize = 512
		numBlocks = 64
	)
	for name, s := range storeFactories(t, blockSize, numBlocks) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()

			if s.BlockSize() != blockSize || s.NumBlocks() != numBlocks {
				t.Fatalf("geometry = %d x %d, want %d x %d",
					s.NumBlocks(), s.BlockSize(), uint64(numBlocks), blockSize)
			}

			// Fresh store reads as zeros.
			buf := make([]byte, blockSize)
			if err := s.ReadBlock(0, buf); err != nil {
				t.Fatal(err)
			}
			for _, b := range buf {
				if b != 0 {
					t.Fatal("fresh store not zero-filled")
				}
			}

			// Write/read round trip at first, middle, last LBA.
			rng := rand.New(rand.NewSource(1))
			for _, lba := range []uint64{0, numBlocks / 2, numBlocks - 1} {
				data := make([]byte, blockSize)
				rng.Read(data)
				if err := s.WriteBlock(lba, data); err != nil {
					t.Fatalf("write lba %d: %v", lba, err)
				}
				got := make([]byte, blockSize)
				if err := s.ReadBlock(lba, got); err != nil {
					t.Fatalf("read lba %d: %v", lba, err)
				}
				if !bytes.Equal(got, data) {
					t.Errorf("lba %d round trip mismatch", lba)
				}
			}

			// Out-of-range and bad buffer size.
			if err := s.ReadBlock(numBlocks, buf); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("read OOB: err = %v, want ErrOutOfRange", err)
			}
			if err := s.WriteBlock(numBlocks, buf); !errors.Is(err, ErrOutOfRange) {
				t.Errorf("write OOB: err = %v, want ErrOutOfRange", err)
			}
			if err := s.ReadBlock(0, buf[:10]); !errors.Is(err, ErrBadBufSize) {
				t.Errorf("short buf: err = %v, want ErrBadBufSize", err)
			}
			if err := s.WriteBlock(0, make([]byte, blockSize+1)); !errors.Is(err, ErrBadBufSize) {
				t.Errorf("long buf: err = %v, want ErrBadBufSize", err)
			}
		})
	}
}

func TestStoreClosedIO(t *testing.T) {
	for name, s := range storeFactories(t, 512, 8) {
		t.Run(name, func(t *testing.T) {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 512)
			if err := s.ReadBlock(0, buf); err == nil {
				t.Error("read after close: want error")
			}
			if err := s.WriteBlock(0, buf); err == nil {
				t.Error("write after close: want error")
			}
		})
	}
}

func TestGeometryValidation(t *testing.T) {
	if _, err := NewMem(0, 4); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("zero block size: %v", err)
	}
	if _, err := NewMem(512, 0); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("zero blocks: %v", err)
	}
	if _, err := NewSparse(-1, 4); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("negative block size: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	for name, s := range storeFactories(t, 256, 128) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(g)))
					buf := make([]byte, 256)
					for i := 0; i < 200; i++ {
						lba := uint64(rng.Intn(128))
						if i%2 == 0 {
							rng.Read(buf)
							if err := s.WriteBlock(lba, buf); err != nil {
								t.Errorf("write: %v", err)
								return
							}
						} else if err := s.ReadBlock(lba, buf); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func TestSparseMaterialization(t *testing.T) {
	s, err := NewSparse(512, 1<<30) // huge address space, no allocation
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.MaterializedBlocks() != 0 {
		t.Fatal("fresh sparse store materialized blocks")
	}
	data := make([]byte, 512)
	data[0] = 1
	if err := s.WriteBlock(1<<29, data); err != nil {
		t.Fatal(err)
	}
	if s.MaterializedBlocks() != 1 {
		t.Errorf("materialized = %d, want 1", s.MaterializedBlocks())
	}
	got := make([]byte, 512)
	if err := s.ReadBlock(1<<29, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("sparse round trip mismatch")
	}
}

func TestOpenFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	s, err := CreateFile(path, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{0xAB}, 512)
	if err := s.WriteBlock(3, data); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFile(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.NumBlocks() != 16 {
		t.Errorf("reopened NumBlocks = %d, want 16", s2.NumBlocks())
	}
	got := make([]byte, 512)
	if err := s2.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Error("persisted data lost across reopen")
	}

	// Bad geometry on open.
	if _, err := OpenFile(path, 500); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("misaligned open: err = %v, want ErrBadGeometry", err)
	}
}

func TestEqualAndCopy(t *testing.T) {
	a, _ := NewMem(128, 32)
	b, _ := NewMem(128, 32)
	rng := rand.New(rand.NewSource(9))
	buf := make([]byte, 128)
	for lba := uint64(0); lba < 32; lba += 3 {
		rng.Read(buf)
		if err := a.WriteBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
	}

	eq, err := Equal(a, b)
	if err != nil || eq {
		t.Fatalf("Equal before copy = %v,%v; want false,nil", eq, err)
	}
	if _, differ, _ := FirstDiff(a, b); !differ {
		t.Error("FirstDiff: expected difference")
	}

	if err := Copy(b, a); err != nil {
		t.Fatal(err)
	}
	eq, err = Equal(a, b)
	if err != nil || !eq {
		t.Fatalf("Equal after copy = %v,%v; want true,nil", eq, err)
	}
	if _, differ, _ := FirstDiff(a, b); differ {
		t.Error("FirstDiff after copy: expected identical")
	}

	// Geometry mismatch.
	c, _ := NewMem(128, 16)
	if eq, _ := Equal(a, c); eq {
		t.Error("Equal across geometries should be false")
	}
	if err := Copy(c, a); !errors.Is(err, ErrBadGeometry) {
		t.Errorf("Copy across geometries: err = %v, want ErrBadGeometry", err)
	}
}

// TestMemSparseEquivalence property-checks that MemStore and
// SparseStore behave identically under an arbitrary op sequence.
func TestMemSparseEquivalence(t *testing.T) {
	type op struct {
		Write bool
		LBA   uint16
		Fill  byte
	}
	f := func(ops []op) bool {
		const nb = 64
		mem, _ := NewMem(64, nb)
		sparse, _ := NewSparse(64, nb)
		buf1 := make([]byte, 64)
		buf2 := make([]byte, 64)
		for _, o := range ops {
			lba := uint64(o.LBA % nb)
			if o.Write {
				for i := range buf1 {
					buf1[i] = o.Fill
				}
				if mem.WriteBlock(lba, buf1) != nil || sparse.WriteBlock(lba, buf1) != nil {
					return false
				}
			} else {
				if mem.ReadBlock(lba, buf1) != nil || sparse.ReadBlock(lba, buf2) != nil {
					return false
				}
				if !bytes.Equal(buf1, buf2) {
					return false
				}
			}
		}
		eq, err := Equal(mem, sparse)
		return err == nil && eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestObservedStore(t *testing.T) {
	inner, _ := NewMem(64, 8)
	type obs struct {
		lba       uint64
		old, data []byte
	}
	var seen []obs
	s := NewObserved(inner, func(lba uint64, old, data []byte) {
		seen = append(seen, obs{
			lba:  lba,
			old:  append([]byte(nil), old...),
			data: append([]byte(nil), data...),
		})
	})

	w1 := bytes.Repeat([]byte{1}, 64)
	w2 := bytes.Repeat([]byte{2}, 64)
	if err := s.WriteBlock(5, w1); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteBlock(5, w2); err != nil {
		t.Fatal(err)
	}

	if len(seen) != 2 {
		t.Fatalf("observer calls = %d, want 2", len(seen))
	}
	if seen[0].lba != 5 || !bytes.Equal(seen[0].old, make([]byte, 64)) || !bytes.Equal(seen[0].data, w1) {
		t.Error("first observation wrong")
	}
	if !bytes.Equal(seen[1].old, w1) || !bytes.Equal(seen[1].data, w2) {
		t.Error("second observation wrong: pre-image should be previous write")
	}

	// Reads pass through untouched and unobserved.
	got := make([]byte, 64)
	if err := s.ReadBlock(5, got); err != nil || !bytes.Equal(got, w2) {
		t.Error("read through observed store failed")
	}
	if len(seen) != 2 {
		t.Error("read should not trigger observer")
	}

	// Failed writes are not observed.
	if err := s.WriteBlock(999, w1); err == nil {
		t.Error("OOB write should fail")
	}
	if len(seen) != 2 {
		t.Error("failed write must not be observed")
	}
}

func TestCountingStore(t *testing.T) {
	inner, _ := NewMem(64, 8)
	s := NewCounting(inner)
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		if err := s.WriteBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := s.ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if s.Writes() != 3 || s.Reads() != 5 {
		t.Errorf("counts = %d writes, %d reads; want 3, 5", s.Writes(), s.Reads())
	}
}

func TestFaultyStore(t *testing.T) {
	inner, _ := NewMem(64, 8)
	s := NewFaulty(inner)
	buf := make([]byte, 64)

	// Unarmed: transparent.
	if err := s.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}

	errBoom := errors.New("boom")
	s.FailWritesWith(errBoom, 2)
	if err := s.WriteBlock(0, buf); err != nil {
		t.Fatalf("write 1 of grace: %v", err)
	}
	if err := s.WriteBlock(0, buf); err != nil {
		t.Fatalf("write 2 of grace: %v", err)
	}
	if err := s.WriteBlock(0, buf); !errors.Is(err, errBoom) {
		t.Errorf("armed write: err = %v, want boom", err)
	}
	// Reads unaffected.
	if err := s.ReadBlock(0, buf); err != nil {
		t.Errorf("read while write-armed: %v", err)
	}

	s.Heal()
	if err := s.WriteBlock(0, buf); err != nil {
		t.Errorf("write after heal: %v", err)
	}

	s.FailReadsWith(errBoom, 0)
	if err := s.ReadBlock(0, buf); !errors.Is(err, errBoom) {
		t.Errorf("armed read: err = %v, want boom", err)
	}
}

func TestAppendBlocks(t *testing.T) {
	const bs = 8
	s, err := NewMem(bs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for lba := uint64(0); lba < 4; lba++ {
		if err := s.WriteBlock(lba, bytes.Repeat([]byte{byte(lba + 1)}, bs)); err != nil {
			t.Fatal(err)
		}
	}
	dst := append(make([]byte, 0, 3+2*bs), "hdr"...)
	got, err := AppendBlocks(dst, s, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte("hdr"), append(bytes.Repeat([]byte{3}, bs), bytes.Repeat([]byte{4}, bs)...)...)
	if !bytes.Equal(got, want) {
		t.Errorf("AppendBlocks = %v, want %v", got, want)
	}
	if &got[0] != &dst[0] {
		t.Error("AppendBlocks reallocated although dst had room")
	}
	for _, r := range []struct {
		lba   uint64
		count uint32
	}{{3, 2}, {4, 1}, {1, ^uint32(0)}} {
		if _, err := AppendBlocks(nil, s, r.lba, r.count); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("AppendBlocks(%d, %d) = %v, want ErrOutOfRange", r.lba, r.count, err)
		}
	}
}
