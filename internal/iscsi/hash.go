package iscsi

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// maxHashBatch bounds one OpHashCmd request so a target never buffers
// more than ~16MB of block data to answer it.
const maxHashBatch = 4096

// HashSize is the bytes per block hash on the wire.
const HashSize = 8

// XXH64 primes.
const (
	prime1 uint64 = 0x9E3779B185EBCA87
	prime2 uint64 = 0xC2B2AE3D27D4EB4F
	prime3 uint64 = 0x165667B19E3779F9
	prime4 uint64 = 0x85EBCA77C2B2AE63
	prime5 uint64 = 0x27D4EB2F165667C5

	// The first and fourth lanes' seed-0 start values, mod 2^64.
	lane1Init uint64 = 0x60EA27EEADC0B5D6 // prime1 + prime2
	lane4Init uint64 = 0x61C8864E7A143579 // -prime1
)

// zeroHashFold replaces a hash result of 0, which the wire reserves for
// "unverified push" and a by-ref decoder rejects. Any fixed nonzero
// value works: the fold only merges the blocks hashing to 0 with those
// hashing to this constant, as likely a collision as any other.
const zeroHashFold uint64 = prime5

// HashBlock returns the XXH64 (seed 0) content hash of one block, the
// unit of comparison for verified applies, dedupe and delta resync. It
// never returns 0: an input whose XXH64 is 0 hashes to a fixed nonzero
// constant instead. It is a fast 64-bit non-cryptographic hash, not a
// collision-resistant identity.
func HashBlock(data []byte) uint64 {
	return foldZero(xxh64(data))
}

// foldZero maps the reserved hash value 0 to zeroHashFold.
func foldZero(h uint64) uint64 {
	if h == 0 {
		return zeroHashFold
	}
	return h
}

// xxh64 is XXH64 with seed 0: four 8-byte lanes over each 32-byte
// stripe, then the 8-, 4- and 1-byte tail, then the final avalanche.
func xxh64(b []byte) uint64 {
	n := len(b)
	var h uint64
	if n >= 32 {
		v1 := lane1Init
		v2 := prime2
		v3 := uint64(0)
		v4 := lane4Init
		for ; len(b) >= 32; b = b[32:] {
			v1 = xxhRound(v1, binary.LittleEndian.Uint64(b[0:8]))
			v2 = xxhRound(v2, binary.LittleEndian.Uint64(b[8:16]))
			v3 = xxhRound(v3, binary.LittleEndian.Uint64(b[16:24]))
			v4 = xxhRound(v4, binary.LittleEndian.Uint64(b[24:32]))
		}
		h = bits.RotateLeft64(v1, 1) + bits.RotateLeft64(v2, 7) +
			bits.RotateLeft64(v3, 12) + bits.RotateLeft64(v4, 18)
		h = xxhMerge(h, v1)
		h = xxhMerge(h, v2)
		h = xxhMerge(h, v3)
		h = xxhMerge(h, v4)
	} else {
		h = prime5
	}
	h += uint64(n)

	for ; len(b) >= 8; b = b[8:] {
		h ^= xxhRound(0, binary.LittleEndian.Uint64(b))
		h = bits.RotateLeft64(h, 27)*prime1 + prime4
	}
	if len(b) >= 4 {
		h ^= uint64(binary.LittleEndian.Uint32(b)) * prime1
		h = bits.RotateLeft64(h, 23)*prime2 + prime3
		b = b[4:]
	}
	for _, c := range b {
		h ^= uint64(c) * prime5
		h = bits.RotateLeft64(h, 11) * prime1
	}

	h ^= h >> 33
	h *= prime2
	h ^= h >> 29
	h *= prime3
	h ^= h >> 32
	return h
}

func xxhRound(acc, in uint64) uint64 {
	acc += in * prime2
	return bits.RotateLeft64(acc, 31) * prime1
}

func xxhMerge(acc, v uint64) uint64 {
	acc ^= xxhRound(0, v)
	return acc*prime1 + prime4
}

// HashBlocks hashes consecutive blockSize-sized blocks of data and
// returns the concatenated big-endian hashes.
func HashBlocks(data []byte, blockSize int) []byte {
	n := len(data) / blockSize
	out := make([]byte, n*HashSize)
	for i := 0; i < n; i++ {
		h := HashBlock(data[i*blockSize : (i+1)*blockSize])
		binary.BigEndian.PutUint64(out[i*HashSize:], h)
	}
	return out
}

// DecodeHashes parses a HashBlocks payload. The payload must be an
// exact multiple of HashSize: a trailing partial hash means the frame
// was truncated, and silently dropping it would let a delta resync
// skip the very blocks it needed to compare.
func DecodeHashes(data []byte) ([]uint64, error) {
	if len(data)%HashSize != 0 {
		return nil, fmt.Errorf("%w: hash payload of %d bytes is not a multiple of %d",
			ErrShortFrame, len(data), HashSize)
	}
	out := make([]uint64, len(data)/HashSize)
	for i := range out {
		out[i] = binary.BigEndian.Uint64(data[i*HashSize:])
	}
	return out, nil
}

// ReadHashes fetches the content hashes of count blocks starting at
// lba from the remote device.
func (i *Initiator) ReadHashes(lba uint64, count uint32) ([]uint64, error) {
	resp, err := i.roundTrip(&PDU{Op: OpHashCmd, LBA: lba, Blocks: count})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, statusErr("hash", lba, resp.Status)
	}
	if got, want := len(resp.Data), int(count)*HashSize; got != want {
		return nil, fmt.Errorf("%w: hash response carries %d bytes, want %d", ErrShortFrame, got, want)
	}
	return DecodeHashes(resp.Data)
}
