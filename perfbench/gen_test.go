package main

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"testing"

	"prins"
)

// TestGeneratorsAreDeterministic checks each workload's input
// generator: the same seed gives an identical digest, another seed a
// different one.
func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, g := range []struct {
		name   string
		digest func(t *testing.T, seed int64) [32]byte
	}{
		{"tpcc-trace", tpccDigest},
		{"sparse-writes", sparseDigest},
		{"fs-ops", fsDigest},
	} {
		t.Run(g.name, func(t *testing.T) {
			a, b, c := g.digest(t, 1), g.digest(t, 1), g.digest(t, 2)
			if a != b {
				t.Fatal("the same seed gave different inputs")
			}
			if a == c {
				t.Fatal("different seeds gave the same inputs")
			}
		})
	}
}

func tpccDigest(t *testing.T, seed int64) [32]byte {
	tr, err := genTPCC(seed, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.recs) == 0 {
		t.Fatal("empty trace")
	}
	return tr.digest()
}

func sparseDigest(t *testing.T, seed int64) [32]byte {
	const blocks = 64
	img := sparseImage(seed, blocks)
	h := sha256.New()
	for c := 0; c < 2; c++ {
		g := newSparseGen(seed, c, 2, blocks)
		buf := make([]byte, blockSize)
		for i := 0; i < 500; i++ {
			lba := g.next(func(lba uint64) []byte { return img[lba] }, buf)
			if int(lba)%2 != c {
				t.Fatalf("client %d drew block %d it does not own", c, lba)
			}
			copy(img[lba], buf)
			binary.Write(h, binary.BigEndian, lba)
			h.Write(buf)
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func fsDigest(t *testing.T, seed int64) [32]byte {
	s, err := prins.NewSparseStore(blockSize, fsBlocks)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := fsRound(s, seed, 0); err != nil {
		t.Fatal(err)
	}
	if fails := checkTree(s); len(fails) > 0 {
		t.Fatal(fails)
	}
	h := sha256.New()
	buf := make([]byte, blockSize)
	for lba := uint64(0); lba < s.NumBlocks(); lba++ {
		if err := s.ReadBlock(lba, buf); err != nil {
			t.Fatal(err)
		}
		h.Write(buf)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// digest identifies the generated input: the pre-trace image and the
// trace.
func (t *tpccTrace) digest() [32]byte {
	h := sha256.New()
	hashImage(h, t.pre)
	var hdr [8]byte
	for _, r := range t.recs {
		binary.BigEndian.PutUint64(hdr[:], r.lba)
		_, _ = h.Write(hdr[:]) // a hash never fails to write
		_, _ = h.Write(r.data)
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func hashImage(h io.Writer, im image) {
	var hdr [8]byte
	for _, lba := range im.sortedLBAs() {
		binary.BigEndian.PutUint64(hdr[:], lba)
		_, _ = h.Write(hdr[:]) // a hash never fails to write
		_, _ = h.Write(im[lba])
	}
}
