package shm

import (
	"hash/crc32"
	"runtime"
	"sync"
)

// Segment validation is the only data-proportional work on the instant-on
// critical path: a restarting leaf flips ready as soon as the payload CRC
// passes, so the whole-payload checksum pass IS the availability gap. A
// single-core CRC leaves the other cores idle at the worst possible moment.
// checksumParallel splits the buffer into per-core chunks, checksums them
// concurrently, and stitches the results with the standard GF(2)
// matrix-exponentiation CRC combine (the zlib crc32_combine construction,
// here over the Castagnoli polynomial). The eager drain stitches with the same
// combine: it checksums a segment block by block, newest first, as it copies.

// crcParallelMinChunk is the smallest chunk worth a goroutine; below
// workers*this, the sequential checksum wins.
const crcParallelMinChunk = 512 << 10

// checksumParallel computes crc32.Checksum(b, segCRCTable) using up to
// GOMAXPROCS cores. Identical result, same polynomial, only faster on large
// buffers.
func checksumParallel(b []byte) uint32 {
	workers := runtime.GOMAXPROCS(0)
	if m := len(b) / crcParallelMinChunk; workers > m {
		workers = m
	}
	if workers <= 1 {
		return crc32.Checksum(b, segCRCTable)
	}
	chunk := (len(b) + workers - 1) / workers
	part := func(i int) []byte { return b[i*chunk : min((i+1)*chunk, len(b))] }
	crcs := make([]uint32, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			crcs[i] = crc32.Checksum(part(i), segCRCTable)
		}(i)
	}
	wg.Wait()
	crc := crcs[0]
	for i := 1; i < workers; i++ {
		crc = crc32Combine(crc, crcs[i], int64(len(part(i))))
	}
	return crc
}

// castagnoliReflected is the bit-reversed Castagnoli polynomial, the form
// the reflected CRC algorithm (and hash/crc32) computes with.
const castagnoliReflected = 0x82F63B78

// crc32Combine returns the CRC of the concatenation of two buffers given
// crc1 of the first, crc2 of the second, and the second's length: it
// advances crc1 through len2 zero bytes by applying the CRC's linear
// operator as a GF(2) matrix raised to len2 (one precomputed squaring per
// bit of len2), then folds in crc2. Works on finalized (xor-conditioned) CRC
// values.
func crc32Combine(crc1, crc2 uint32, len2 int64) uint32 {
	for k := 0; len2 > 0; k, len2 = k+1, len2>>1 {
		if len2&1 != 0 {
			crc1 = gf2MatrixTimes(&zeroBytes[k], crc1)
		}
	}
	return crc1 ^ crc2
}

// zeroBytes[k] is the operator that advances a CRC through 2^k zero bytes.
var zeroBytes = func() (ops [63][32]uint32) {
	// The operator for one zero bit: shift down, feeding the polynomial.
	var bit [32]uint32
	bit[0] = castagnoliReflected
	for n := 1; n < 32; n++ {
		bit[n] = 1 << (n - 1)
	}
	// Squared three times it is the operator for one zero byte.
	var two, four [32]uint32
	gf2MatrixSquare(&two, &bit)
	gf2MatrixSquare(&four, &two)
	gf2MatrixSquare(&ops[0], &four)
	for k := 1; k < len(ops); k++ {
		gf2MatrixSquare(&ops[k], &ops[k-1])
	}
	return ops
}()

// gf2MatrixTimes multiplies the 32x32 GF(2) matrix by the vector.
func gf2MatrixTimes(mat *[32]uint32, vec uint32) uint32 {
	var sum uint32
	for i := 0; vec != 0; i++ {
		if vec&1 != 0 {
			sum ^= mat[i]
		}
		vec >>= 1
	}
	return sum
}

// gf2MatrixSquare sets square to mat*mat.
func gf2MatrixSquare(square, mat *[32]uint32) {
	for n := 0; n < 32; n++ {
		square[n] = gf2MatrixTimes(mat, mat[n])
	}
}
