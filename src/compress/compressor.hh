/**
 * @file
 * Abstract cache-line compression interface. All algorithms (BDI, FPC,
 * C-Pack, zero-content) compress one 64B line at a time and must round-trip
 * exactly. The cache models consume only the segment-quantized compressed
 * size (Section IV.C of the paper: 4-byte alignment, 16 possible sizes),
 * but full encode/decode is implemented and tested for every algorithm.
 */

#ifndef BVC_COMPRESS_COMPRESSOR_HH_
#define BVC_COMPRESS_COMPRESSOR_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace bvc
{

/** One compressed cache line: opaque payload plus its exact byte size. */
struct CompressedBlock
{
    /** Algorithm-specific encoding id (see each compressor's enum). */
    std::uint32_t encoding = 0;
    /** Encoded bytes, including any per-line metadata the format needs. */
    std::vector<std::uint8_t> payload;

    /** Exact compressed size in bytes (== payload.size()). */
    std::size_t sizeBytes() const { return payload.size(); }
};

/**
 * Quantize a byte size to 4-byte segments, the granularity the paper's
 * tag metadata tracks. Sizes past one line would be recorded as fitting
 * if they were clamped, so a compressor that violated its <= kLineBytes
 * contract (see Compressor::compress()) is an internal bug and panics.
 */
[[nodiscard]] constexpr unsigned
bytesToSegments(std::size_t bytes)
{
    if (bytes > kLineBytes)
        panic("bytesToSegments: compressed size exceeds one line");
    return static_cast<unsigned>(
        (bytes + kSegmentBytes - 1) / kSegmentBytes);
}

/**
 * Abstract single-line compressor. Implementations must be stateless.
 *
 * There are two paths through every codec (see docs/compression.md):
 *
 *   - compress()/decompress(), the encode path: produces the actual
 *     payload bytes and must round-trip exactly;
 *   - compressedBytes(), the size-only path: returns the size the
 *     encode path would produce without materializing the payload.
 *     The cache models only ever consume the (segment-quantized) size,
 *     so this path is the per-access hot path and implementations keep
 *     it allocation-free.
 *
 * Contract binding the two paths, enforced by the property tests:
 *
 *   compressedBytes(line) == compress(line).sizeBytes() <= kLineBytes
 *
 * The size bound is mandatory: a codec whose encoding would expand
 * past one line must fall back to storing the line verbatim (64 bytes)
 * rather than report an oversized result.
 */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Compress one kLineBytes-sized line (encode path). */
    [[nodiscard]] virtual CompressedBlock
    compress(const std::uint8_t *line) const = 0;

    /**
     * Exact compressed size of `line` in bytes (size-only path), equal
     * to compress(line).sizeBytes() but without heap allocation. The
     * base implementation runs the full encode; every bundled codec
     * overrides it with an allocation-free computation.
     */
    [[nodiscard]] virtual std::size_t
    compressedBytes(const std::uint8_t *line) const;

    /**
     * Reconstruct the original 64 bytes from a block previously produced
     * by this compressor's compress().
     * @param block the compressed representation
     * @param out   destination buffer of kLineBytes bytes
     */
    virtual void decompress(const CompressedBlock &block,
                            std::uint8_t *out) const = 0;

    /** Human-readable algorithm name ("BDI", "FPC", ...). */
    [[nodiscard]] virtual std::string name() const = 0;

    /**
     * Decompression latency in core cycles for a line stored with the
     * given compressed segment count. Zero and uncompressed lines are
     * detected from the tag-metadata size field and skip decompression
     * (Section V), which implementations express by returning 0.
     */
    [[nodiscard]] virtual unsigned
    decompressionCycles(unsigned segments) const;
};

} // namespace bvc

#endif // BVC_COMPRESS_COMPRESSOR_HH_
