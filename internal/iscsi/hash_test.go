package iscsi

import (
	"encoding/binary"
	"testing"
)

// TestHashBlockKnownAnswers pins HashBlock to the published XXH64
// seed-0 test vectors.
func TestHashBlockKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"abc", 0x44bc2cf5ad770999},
	} {
		if got := HashBlock([]byte(tc.in)); got != tc.want {
			t.Errorf("HashBlock(%q) = %016x, want %016x", tc.in, got, tc.want)
		}
	}
}

// TestHashBlockBitFlips flips every bit of inputs of every length up
// to 100 bytes: lengths below and above the 32-byte stripe, and every
// 8-, 4- and 1-byte tail combination, must all see the flip.
func TestHashBlockBitFlips(t *testing.T) {
	buf := make([]byte, 100)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	for n := 1; n <= len(buf); n++ {
		in := buf[:n]
		base := HashBlock(in)
		for bit := 0; bit < n*8; bit++ {
			in[bit/8] ^= 1 << (bit % 8)
			if HashBlock(in) == base {
				t.Errorf("len %d: flipping bit %d left the hash at %016x", n, bit, base)
			}
			in[bit/8] ^= 1 << (bit % 8)
		}
	}
}

// TestFoldZero checks the sentinel fold: 0 is reserved for "unverified
// push", so it maps to a fixed nonzero constant and nothing else moves.
func TestFoldZero(t *testing.T) {
	if got := foldZero(0); got == 0 || got != zeroHashFold {
		t.Fatalf("foldZero(0) = %016x, want %016x", got, zeroHashFold)
	}
	for _, h := range []uint64{1, zeroHashFold, 0xef46db3751d8e999, ^uint64(0)} {
		if got := foldZero(h); got != h {
			t.Errorf("foldZero(%016x) = %016x, want it unchanged", h, got)
		}
	}
}

func TestHashBlockDoesNotAllocate(t *testing.T) {
	block := make([]byte, 8192)
	if n := testing.AllocsPerRun(100, func() { hashSink = HashBlock(block) }); n != 0 {
		t.Fatalf("HashBlock allocates %v times per call", n)
	}
}

// FuzzHashBlock checks that HashBlocks, the OpHashCmd payload, agrees
// with per-block HashBlock for any data and block size.
func FuzzHashBlock(f *testing.F) {
	f.Add([]byte(""), uint8(16))
	f.Add([]byte("abc"), uint8(1))
	f.Add(make([]byte, 96), uint8(32))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef!"), uint8(33))
	f.Fuzz(func(t *testing.T, data []byte, bs uint8) {
		blockSize := int(bs)%64 + 1
		out := HashBlocks(data, blockSize)
		n := len(data) / blockSize
		if len(out) != n*HashSize {
			t.Fatalf("HashBlocks returned %d bytes for %d blocks", len(out), n)
		}
		for i := 0; i < n; i++ {
			want := HashBlock(data[i*blockSize : (i+1)*blockSize])
			if want == 0 {
				t.Fatalf("block %d hashed to the reserved 0", i)
			}
			if got := binary.BigEndian.Uint64(out[i*HashSize:]); got != want {
				t.Fatalf("block %d: HashBlocks %016x, HashBlock %016x", i, got, want)
			}
		}
	})
}

var hashSink uint64

// BenchmarkHashBlock hashes one 8 KiB block per op: the unit every
// verified apply, dedupe lookup and resync compare pays.
func BenchmarkHashBlock(b *testing.B) {
	block := make([]byte, 8192)
	for i := range block {
		block[i] = byte(i * 31)
	}
	b.SetBytes(int64(len(block)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashSink = HashBlock(block)
	}
}
