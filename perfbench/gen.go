package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"sort"

	"prins"
	"prins/internal/minidb"
	"prins/internal/tpcc"
	"prins/internal/trace"
)

// blockSize is the prinsd default and the paper's headline block size.
const blockSize = 8 << 10

// rec is one block write of a generated input stream.
type rec struct {
	lba  uint64
	data []byte
}

// image is a sparse block image: absent blocks are zero.
type image map[uint64][]byte

// clone copies the map (block contents are shared, never mutated).
func (im image) clone() image {
	out := make(image, len(im))
	for k, v := range im {
		out[k] = v
	}
	return out
}

// apply returns the image after recs.
func (im image) apply(recs []rec) image {
	out := im.clone()
	for _, r := range recs {
		out[r.lba] = r.data
	}
	return out
}

// writeTo stores every block of the image into dst.
func (im image) writeTo(dst prins.Store) error {
	for lba, data := range im {
		if err := dst.WriteBlock(lba, data); err != nil {
			return err
		}
	}
	return nil
}

// sortedLBAs lists the image's blocks in address order.
func (im image) sortedLBAs() []uint64 {
	out := make([]uint64, 0, len(im))
	for lba := range im {
		out = append(out, lba)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tpccTrace is a TPC-C run on minidb captured as a block-write trace
// with content: the image after the initial load and the writes the
// transactions made.
type tpccTrace struct {
	pre  image
	recs []rec
}

// tpccDevice is the capacity of the TPC-C device in blocks (128 MiB).
const tpccDevice = 1 << 14

// captureStore passes writes through to a store and reports each one.
type captureStore struct {
	prins.Store
	onWrite func(lba uint64, data []byte)
}

func (s *captureStore) WriteBlock(lba uint64, data []byte) error {
	if err := s.Store.WriteBlock(lba, data); err != nil {
		return err
	}
	s.onWrite(lba, data)
	return nil
}

// genTPCC loads a TPC-C database at the given warehouse count, then
// runs txns transactions and captures their block writes through a
// trace.Writer hook. Everything derives from seed.
func genTPCC(seed int64, warehouses, txns int) (*tpccTrace, error) {
	disk, err := prins.NewSparseStore(blockSize, tpccDevice)
	if err != nil {
		return nil, err
	}
	defer disk.Close()
	dbCfg := minidb.DBConfig{CacheBytes: 16 << 20, WALPages: 64, CheckpointEvery: 8}
	scale := tpcc.DefaultScale(warehouses)

	// Initial population: remember which blocks it wrote.
	written := map[uint64]bool{}
	load := &captureStore{Store: disk, onWrite: func(lba uint64, _ []byte) { written[lba] = true }}
	db, err := minidb.Create(load, dbCfg)
	if err != nil {
		return nil, err
	}
	if _, err := tpcc.Load(db, scale, seed); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	t := &tpccTrace{pre: image{}}
	for lba := range written {
		buf := make([]byte, blockSize)
		if err := disk.ReadBlock(lba, buf); err != nil {
			return nil, err
		}
		t.pre[lba] = buf
	}

	// Transactions, captured with content.
	var stream bytes.Buffer
	tw, err := trace.NewWriter(&stream, blockSize)
	if err != nil {
		return nil, err
	}
	hook, hookErr := tw.Hook()
	run := &captureStore{Store: disk, onWrite: func(lba uint64, data []byte) { hook(lba, nil, data) }}
	db, err = minidb.Open(run, dbCfg)
	if err != nil {
		return nil, err
	}
	client, err := tpcc.Open(db, scale, seed+1)
	if err != nil {
		return nil, err
	}
	if err := client.Run(txns); err != nil {
		return nil, err
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	if err := tw.Close(); err != nil {
		return nil, err
	}
	if err := hookErr(); err != nil {
		return nil, err
	}

	tr, err := trace.NewReader(&stream)
	if err != nil {
		return nil, err
	}
	defer tr.Close()
	for {
		lba, data, err := tr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		t.recs = append(t.recs, rec{lba, data})
	}
	canonicalize(t.recs)
	return t, nil
}

// canonicalize makes a captured minidb trace independent of Go's map
// order. The pager writes a checkpoint's dirty pages in map order and
// then its meta page, block 0; so before each write to block 0, the
// longest run of writes to distinct blocks is sorted by block. A run
// holds each block once, so every block's own write sequence, and
// with it every write's (old, new) pair, is unchanged.
func canonicalize(recs []rec) {
	for i, r := range recs {
		if r.lba != 0 {
			continue
		}
		seen := map[uint64]bool{}
		start := i
		for start > 0 && recs[start-1].lba != 0 && !seen[recs[start-1].lba] {
			seen[recs[start-1].lba] = true
			start--
		}
		run := recs[start:i]
		sort.Slice(run, func(a, b int) bool { return run[a].lba < run[b].lba })
	}
}

// sparseGen produces the sparse-lan overwrite stream: uniform random
// LBAs of one client's share of the device, each write replacing one
// contiguous run of 5-20% of the block with random bytes.
type sparseGen struct {
	rng    *rand.Rand
	lbas   uint64 // blocks owned by this client
	stride uint64 // client count: the client owns lba%stride == first
	first  uint64
}

func newSparseGen(seed int64, client, clients int, blocks uint64) *sparseGen {
	return &sparseGen{
		rng:    rand.New(rand.NewPCG(uint64(seed), uint64(client)+1)),
		lbas:   blocks / uint64(clients),
		stride: uint64(clients),
		first:  uint64(client),
	}
}

// next picks the next write's block and the run it changes, and fills
// that run of dst with fresh random bytes. dst must already hold the
// block's current content.
func (g *sparseGen) next(cur func(lba uint64) []byte, dst []byte) uint64 {
	lba := g.first + g.rng.Uint64N(g.lbas)*g.stride
	copy(dst, cur(lba))
	n := len(dst)*5/100 + g.rng.IntN(len(dst)*15/100+1)
	off := g.rng.IntN(len(dst) - n + 1)
	fillRandom(g.rng, dst[off:off+n])
	return lba
}

// fillRandom overwrites b with random bytes.
func fillRandom(rng *rand.Rand, b []byte) {
	for len(b) >= 8 {
		binary.LittleEndian.PutUint64(b, rng.Uint64())
		b = b[8:]
	}
	for i := range b {
		b[i] = byte(rng.Uint32())
	}
}

// sparseImage is the pre-filled 64 MiB sparse-lan device content.
func sparseImage(seed int64, blocks uint64) [][]byte {
	rng := rand.New(rand.NewPCG(uint64(seed), 0))
	out := make([][]byte, blocks)
	backing := make([]byte, int(blocks)*blockSize)
	for i := range out {
		out[i] = backing[i*blockSize : (i+1)*blockSize : (i+1)*blockSize]
	}
	fillRandom(rng, backing)
	return out
}
