// Package block provides the block-device substrate every other layer
// sits on: a Store interface addressed by logical block address (LBA),
// with in-memory, file-backed, and sparse implementations, plus
// wrappers for write observation and fault injection used by the
// replication engine and the test suite.
package block

import (
	"errors"
	"fmt"
	"slices"
)

// Store is a fixed-geometry block device. Reads and writes are whole
// blocks at a logical block address. Implementations must be safe for
// concurrent use unless documented otherwise.
type Store interface {
	// ReadBlock fills buf (which must be exactly BlockSize bytes) with
	// the contents of block lba.
	ReadBlock(lba uint64, buf []byte) error
	// WriteBlock replaces block lba with data (exactly BlockSize bytes).
	WriteBlock(lba uint64, data []byte) error
	// BlockSize returns the device block size in bytes.
	BlockSize() int
	// NumBlocks returns the device capacity in blocks.
	NumBlocks() uint64
	// Close releases any resources held by the store.
	Close() error
}

// Error values callers can match with errors.Is.
var (
	ErrOutOfRange  = errors.New("block: LBA out of range")
	ErrBadBufSize  = errors.New("block: buffer size does not match block size")
	ErrClosed      = errors.New("block: store is closed")
	ErrBadGeometry = errors.New("block: invalid geometry")
)

// checkGeometry validates a requested device shape.
func checkGeometry(blockSize int, numBlocks uint64) error {
	if blockSize <= 0 {
		return fmt.Errorf("%w: block size %d", ErrBadGeometry, blockSize)
	}
	if numBlocks == 0 {
		return fmt.Errorf("%w: zero blocks", ErrBadGeometry)
	}
	return nil
}

// checkIO validates an I/O request against a geometry.
func checkIO(lba uint64, bufLen, blockSize int, numBlocks uint64) error {
	if lba >= numBlocks {
		return fmt.Errorf("%w: lba %d >= %d", ErrOutOfRange, lba, numBlocks)
	}
	if bufLen != blockSize {
		return fmt.Errorf("%w: %d != %d", ErrBadBufSize, bufLen, blockSize)
	}
	return nil
}

// Equal reports whether two stores have identical geometry and
// contents. Used by integration tests to assert replica convergence.
func Equal(a, b Store) (bool, error) {
	if a.BlockSize() != b.BlockSize() || a.NumBlocks() != b.NumBlocks() {
		return false, nil
	}
	bufA := make([]byte, a.BlockSize())
	bufB := make([]byte, b.BlockSize())
	for lba := uint64(0); lba < a.NumBlocks(); lba++ {
		if err := a.ReadBlock(lba, bufA); err != nil {
			return false, fmt.Errorf("read a lba %d: %w", lba, err)
		}
		if err := b.ReadBlock(lba, bufB); err != nil {
			return false, fmt.Errorf("read b lba %d: %w", lba, err)
		}
		for i := range bufA {
			if bufA[i] != bufB[i] {
				return false, nil
			}
		}
	}
	return true, nil
}

// FirstDiff returns the first LBA at which two stores differ, or
// (0, false) if they are identical. Geometry differences report LBA 0.
func FirstDiff(a, b Store) (uint64, bool, error) {
	if a.BlockSize() != b.BlockSize() || a.NumBlocks() != b.NumBlocks() {
		return 0, true, nil
	}
	bufA := make([]byte, a.BlockSize())
	bufB := make([]byte, b.BlockSize())
	for lba := uint64(0); lba < a.NumBlocks(); lba++ {
		if err := a.ReadBlock(lba, bufA); err != nil {
			return 0, false, err
		}
		if err := b.ReadBlock(lba, bufB); err != nil {
			return 0, false, err
		}
		for i := range bufA {
			if bufA[i] != bufB[i] {
				return lba, true, nil
			}
		}
	}
	return 0, false, nil
}

// Copy copies every block of src into dst; geometries must match. It
// is the "initial sync" step replication systems perform before
// incremental replication starts (the paper assumes A_old exists at
// the replica "after the initial sync").
func Copy(dst, src Store) error {
	if dst.BlockSize() != src.BlockSize() || dst.NumBlocks() != src.NumBlocks() {
		return fmt.Errorf("%w: src %d x %d, dst %d x %d", ErrBadGeometry,
			src.NumBlocks(), src.BlockSize(), dst.NumBlocks(), dst.BlockSize())
	}
	buf := make([]byte, src.BlockSize())
	for lba := uint64(0); lba < src.NumBlocks(); lba++ {
		if err := src.ReadBlock(lba, buf); err != nil {
			return fmt.Errorf("copy read lba %d: %w", lba, err)
		}
		if err := dst.WriteBlock(lba, buf); err != nil {
			return fmt.Errorf("copy write lba %d: %w", lba, err)
		}
	}
	return nil
}

// AppendBlocks appends the contents of count blocks starting at lba to
// dst and returns the extended slice. It reuses dst's spare capacity
// when that is enough, so a caller serving many reads can keep one
// buffer. The whole range is checked before anything is read or
// allocated.
func AppendBlocks(dst []byte, s Store, lba uint64, count uint32) ([]byte, error) {
	if nb := s.NumBlocks(); lba >= nb || uint64(count) > nb-lba {
		return nil, fmt.Errorf("%w: blocks [%d, %d+%d) on a %d-block device",
			ErrOutOfRange, lba, lba, count, nb)
	}
	bs := s.BlockSize()
	start := len(dst)
	dst = slices.Grow(dst, int(count)*bs)[:start+int(count)*bs]
	for i := 0; i < int(count); i++ {
		off := start + i*bs
		if err := s.ReadBlock(lba+uint64(i), dst[off:off+bs]); err != nil {
			return nil, err
		}
	}
	return dst, nil
}
