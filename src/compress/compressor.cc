#include "compress/compressor.hh"

namespace bvc
{

unsigned
Compressor::decompressionCycles(unsigned segments) const
{
    // Tag metadata exposes the size field, so zero lines (0 segments)
    // and uncompressed lines (full-size) bypass the decompressor
    // entirely (Section V of the paper). Everything else pays the
    // two-cycle BDI-class decompression latency.
    if (segments == 0 || segments >= kSegmentsPerLine)
        return 0;
    return 2;
}

std::size_t
Compressor::compressedBytes(const std::uint8_t *line) const
{
    return compress(line).sizeBytes();
}

} // namespace bvc
