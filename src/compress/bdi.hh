/**
 * @file
 * Base-Delta-Immediate (BDI) compression [Pekhimenko et al., PACT 2012],
 * the algorithm the paper uses for its LLC (Section V). A line is encoded
 * as one explicit base of k bytes plus per-element deltas of d bytes;
 * each element may instead take its delta from an implicit zero base
 * (the "immediate" part), selected by a per-element mask bit.
 *
 * Supported encodings and their exact sizes for a 64B line:
 *
 *   Zeros          line is all zero bytes                ->  1 byte
 *   Rep8           single repeated 8-byte value          ->  8 bytes
 *   B8D1/B8D2/B8D4 8B base, 8 elems, 1/2/4B deltas + 1B mask
 *   B4D1/B4D2      4B base, 16 elems, 1/2B deltas + 2B mask
 *   B2D1           2B base, 32 elems, 1B deltas + 4B mask
 *   Uncompressed   64 bytes verbatim
 *
 * The compressor picks the smallest applicable encoding.
 */

#ifndef BVC_COMPRESS_BDI_HH_
#define BVC_COMPRESS_BDI_HH_

#include "compress/compressor.hh"

namespace bvc
{

/** BDI codec; see file comment for the encoding set. */
class BdiCompressor : public Compressor
{
  public:
    /** Encoding ids stored in CompressedBlock::encoding. */
    enum Encoding : std::uint32_t
    {
        Zeros = 0,
        Rep8,
        B8D1,
        B8D2,
        B8D4,
        B4D1,
        B4D2,
        B2D1,
        Uncompressed,
        NumEncodings,
    };

    CompressedBlock compress(const std::uint8_t *line) const override;
    /**
     * Size-only path, no payload and no allocation: zero and Rep8 from
     * one pass over the words, then B8D1 alone, then one pass per base
     * width that validates all its delta widths together.
     */
    std::size_t compressedBytes(const std::uint8_t *line) const override;
    void decompress(const CompressedBlock &block,
                    std::uint8_t *out) const override;
    std::string name() const override { return "BDI"; }

    /** Exact encoded size in bytes for a base/delta configuration. */
    static std::size_t encodedBytes(Encoding enc);

  private:
    /**
     * Validation pass of one base-delta-immediate configuration for the
     * encode path: decide applicability and recover the base and
     * base/immediate mask that tryBaseDelta() emits.
     * @param line      the 64B input
     * @param baseBytes base element width (2, 4 or 8)
     * @param deltaBytes delta width (must be < baseBytes)
     * @param base      receives the explicit base value
     * @param maskBits  receives the per-element base-vs-immediate mask
     * @return true if every element fits within deltaBytes of either the
     *         first non-immediate element (the base) or zero
     */
    static bool analyzeBaseDelta(const std::uint8_t *line,
                                 unsigned baseBytes, unsigned deltaBytes,
                                 std::uint64_t &base,
                                 std::uint64_t &maskBits);

    /**
     * Try one base-delta-immediate configuration (encode path).
     * @param out receives the encoded payload on success
     * @return same condition as analyzeBaseDelta()
     */
    static bool tryBaseDelta(const std::uint8_t *line, unsigned baseBytes,
                             unsigned deltaBytes,
                             std::vector<std::uint8_t> &out);

    static void decodeBaseDelta(const CompressedBlock &block,
                                unsigned baseBytes, unsigned deltaBytes,
                                std::uint8_t *out);
};

} // namespace bvc

#endif // BVC_COMPRESS_BDI_HH_
