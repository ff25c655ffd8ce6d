#ifndef PRIMA_UTIL_CRC32_H_
#define PRIMA_UTIL_CRC32_H_

#include <cstdint>

#include "util/slice.h"

namespace prima::util {

/// CRC-32 over a byte range: the IEEE 802.3 polynomial (reflected
/// 0xEDB88320, initial value and final xor 0xFFFFFFFF). It is the one
/// checksum of every persistent and wire format in PRIMA:
///   - page headers, sealed on write-back and checkpoint and verified on
///     every read from the device (a mismatch is reported as Corruption);
///   - WAL fragments, the WAL master blocks, and the archive and backup
///     headers and bodies;
///   - net frames, in both directions.
/// The polynomial cannot change: every stored page, log block and backup,
/// and every peer on the wire, carries values of this one. (The SSE4.2
/// `crc32` instruction computes CRC-32C, a different polynomial, so it
/// cannot serve here.)
///
/// The implementation is chosen once per process: on x86 with PCLMULQDQ
/// and SSE4.1, inputs of 64 bytes or more are folded 16 bytes at a time
/// by carry-less multiplication (Gopal et al., "Fast CRC Computation for
/// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009); short
/// inputs, the bytes left over by the fold, and every other CPU use
/// table slicing-by-8. Both give the same value on every input.
uint32_t Crc32(Slice data);

/// Incremental form: extend a running checksum, so that
/// Crc32Extend(Crc32(a), b) == Crc32(a + b).
uint32_t Crc32Extend(uint32_t crc, Slice data);

/// The portable slicing-by-8 form of Crc32Extend, whatever the CPU: the
/// fallback, and the oracle the folded form is tested against.
uint32_t Crc32ExtendPortable(uint32_t crc, Slice data);

/// True when Crc32Extend folds with PCLMULQDQ on this CPU.
bool Crc32UsesFold();

}  // namespace prima::util

#endif  // PRIMA_UTIL_CRC32_H_
