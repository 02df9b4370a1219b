#include "compress/bdi.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "compress/bitstream.hh"
#include "util/logging.hh"

namespace bvc
{

namespace
{

/** Read a little-endian element of `width` bytes at index `i`. */
std::uint64_t
loadElem(const std::uint8_t *line, unsigned width, unsigned i)
{
    std::uint64_t v = 0;
    std::memcpy(&v, line + static_cast<std::size_t>(i) * width, width);
    return v;
}

/** Write a little-endian element of `width` bytes at index `i`. */
void
storeElem(std::uint8_t *line, unsigned width, unsigned i, std::uint64_t v)
{
    std::memcpy(line + static_cast<std::size_t>(i) * width, &v, width);
}

bool
allZero(const std::uint8_t *line)
{
    // OR-accumulate whole words; no per-element early-exit branch.
    std::uint64_t acc = 0;
    for (unsigned i = 0; i < kLineBytes / 8; ++i)
        acc |= loadElem(line, 8, i);
    return acc == 0;
}

bool
repeated8(const std::uint8_t *line)
{
    std::uint64_t first = 0;
    std::memcpy(&first, line, 8);
    std::uint64_t diff = 0;
    for (unsigned i = 1; i < kLineBytes / 8; ++i)
        diff |= loadElem(line, 8, i) ^ first;
    return diff == 0;
}

/**
 * Width-specialized base-delta validation over fixed-count word lanes.
 * Two straight-line passes with no data-dependent branches inside the
 * loops (SIMD-friendly: every lane computes a predicate that folds
 * into a mask or an AND-accumulator):
 *
 *   pass 1: lane i sets zeroMask bit i when the element fits the
 *           delta range around the implicit zero base;
 *   the base is the first element NOT covered by zeroMask (its lane
 *   index is countr_zero of the complement — no scan loop);
 *   pass 2: lane i checks raw[i] - base against the delta range,
 *           accepted when the lane already fit the zero base.
 *
 * Outputs (base, maskBits, validity) are exactly those of the old
 * sequential early-exit scan: the base element's own delta is zero,
 * so re-checking it in pass 2 never changes the verdict.
 */
template <unsigned BaseBytes, unsigned DeltaBits>
bool
analyzeConfig(const std::uint8_t *line, std::uint64_t &base,
              std::uint64_t &maskBits)
{
    constexpr unsigned kElems =
        static_cast<unsigned>(kLineBytes) / BaseBytes;
    constexpr unsigned kWidthBits = BaseBytes * 8;
    constexpr std::uint64_t kAllElems =
        kElems >= 64 ? ~0ULL : (1ULL << kElems) - 1;

    std::uint64_t raw[kElems];
    for (unsigned i = 0; i < kElems; ++i) {
        std::uint64_t v = 0;
        std::memcpy(&v, line + static_cast<std::size_t>(i) * BaseBytes,
                    BaseBytes);
        raw[i] = v;
    }

    std::uint64_t zeroMask = 0;
    for (unsigned i = 0; i < kElems; ++i) {
        const bool zfits =
            fitsSigned(signExtend(raw[i], kWidthBits), DeltaBits);
        zeroMask |= static_cast<std::uint64_t>(zfits) << i;
    }

    maskBits = ~zeroMask & kAllElems; // bit i set => element uses base
    if (maskBits == 0) {
        base = 0;
        return true;
    }
    base = raw[std::countr_zero(maskBits)];

    bool ok = true;
    for (unsigned i = 0; i < kElems; ++i) {
        // Subtract in unsigned (wraps, no overflow UB), then compare
        // in the element's own width to handle wraparound.
        const bool dfits =
            fitsSigned(signExtend(raw[i] - base, kWidthBits), DeltaBits);
        ok &= dfits || ((zeroMask >> i) & 1) != 0;
    }
    return ok;
}

/**
 * All base-delta configurations, in the order the encode path tries
 * them. compress() keeps the smallest that validates; among equal
 * sizes (B2D1 and B4D2, 38 bytes) the earlier one wins.
 */
struct BdiConfig
{
    BdiCompressor::Encoding enc;
    unsigned base, delta;
};

constexpr BdiConfig kBdiConfigs[] = {
    {BdiCompressor::B8D1, 8, 1}, {BdiCompressor::B4D1, 4, 1},
    {BdiCompressor::B8D2, 8, 2}, {BdiCompressor::B2D1, 2, 1},
    {BdiCompressor::B4D2, 4, 2}, {BdiCompressor::B8D4, 8, 4},
};

/** The line read as elements of one base width. */
template <typename T>
using Elems = std::array<T, kLineBytes / sizeof(T)>;

template <typename T>
Elems<T>
loadElems(const std::uint8_t *line)
{
    Elems<T> elems{};
    std::memcpy(elems.data(), line, kLineBytes);
    return elems;
}

/**
 * True if `v`, read as a signed number of T's width, fits in
 * DeltaBytes signed bytes. One unsigned compare: adding half the
 * range maps [-2^(8d-1), 2^(8d-1)) onto [0, 2^(8d)), and everything
 * else wraps above it. DeltaBytes < sizeof(T), so no shift reaches
 * the type's width.
 */
template <typename T, unsigned DeltaBytes>
constexpr bool
inDeltaRange(T v)
{
    static_assert(DeltaBytes < sizeof(T));
    constexpr T kHalf = T{1} << (8 * DeltaBytes - 1);
    constexpr T kSpan = T{1} << (8 * DeltaBytes);
    return static_cast<T>(v + kHalf) < kSpan;
}

/**
 * The explicit base of one configuration: its first element outside
 * the zero-delta range. A line with no such element needs no base, and
 * base 0 then validates it like the zero range does.
 */
template <typename T, unsigned DeltaBytes>
T
firstOutsideZeroRange(const Elems<T> &elems)
{
    for (const T v : elems)
        if (!inDeltaRange<T, DeltaBytes>(v))
            return v;
    return 0;
}

/**
 * Validate every delta width in DeltaBytes for one base width, in one
 * pass over the elements. Each lane is a branch-free test: it fits
 * around zero or around its width's base (deltas subtract in T, so
 * they wrap at the element width). Bit j of the result is set when the
 * j-th delta width validates.
 */
template <typename T, unsigned... DeltaBytes>
unsigned
validDeltaWidths(const Elems<T> &elems)
{
    const T bases[] = {firstOutsideZeroRange<T, DeltaBytes>(elems)...};
    unsigned fits[] = {(static_cast<void>(DeltaBytes), 1U)...};
    for (const T v : elems) {
        unsigned j = 0;
        ((fits[j] &= static_cast<unsigned>(
              inDeltaRange<T, DeltaBytes>(v) |
              inDeltaRange<T, DeltaBytes>(static_cast<T>(v - bases[j]))),
          ++j),
         ...);
    }
    unsigned valid = 0;
    for (unsigned j = 0; j < sizeof...(DeltaBytes); ++j)
        valid |= fits[j] << j;
    return valid;
}

} // namespace

std::size_t
BdiCompressor::encodedBytes(Encoding enc)
{
    switch (enc) {
      case Zeros: return 1;
      case Rep8: return 8;
      case B8D1: return 8 + 8 * 1 + 1;   // base + deltas + mask
      case B8D2: return 8 + 8 * 2 + 1;
      case B8D4: return 8 + 8 * 4 + 1;
      case B4D1: return 4 + 16 * 1 + 2;
      case B4D2: return 4 + 16 * 2 + 2;
      case B2D1: return 2 + 32 * 1 + 4;
      case Uncompressed: return kLineBytes;
      default: panic("BDI: unknown encoding");
    }
}

bool
BdiCompressor::analyzeBaseDelta(const std::uint8_t *line,
                                unsigned baseBytes, unsigned deltaBytes,
                                std::uint64_t &base,
                                std::uint64_t &maskBits)
{
    // Dispatch to the width-specialized lane kernels. Only the encode
    // path comes here; compressedBytes() has its own size kernel.
    if (baseBytes == 8 && deltaBytes == 1)
        return analyzeConfig<8, 8>(line, base, maskBits);
    if (baseBytes == 8 && deltaBytes == 2)
        return analyzeConfig<8, 16>(line, base, maskBits);
    if (baseBytes == 8 && deltaBytes == 4)
        return analyzeConfig<8, 32>(line, base, maskBits);
    if (baseBytes == 4 && deltaBytes == 1)
        return analyzeConfig<4, 8>(line, base, maskBits);
    if (baseBytes == 4 && deltaBytes == 2)
        return analyzeConfig<4, 16>(line, base, maskBits);
    if (baseBytes == 2 && deltaBytes == 1)
        return analyzeConfig<2, 8>(line, base, maskBits);
    panic("BDI: unsupported base/delta configuration");
}

bool
BdiCompressor::tryBaseDelta(const std::uint8_t *line, unsigned baseBytes,
                            unsigned deltaBytes,
                            std::vector<std::uint8_t> &out)
{
    const unsigned elems = static_cast<unsigned>(kLineBytes) / baseBytes;

    std::uint64_t base = 0;
    std::uint64_t maskBits = 0;
    if (!analyzeBaseDelta(line, baseBytes, deltaBytes, base, maskBits))
        return false;

    // Emit pass: base, mask, deltas.
    out.clear();
    out.reserve(encodedBytes(B8D4));
    for (unsigned b = 0; b < baseBytes; ++b)
        out.push_back(static_cast<std::uint8_t>(base >> (8 * b)));
    for (unsigned b = 0; b < elems / 8; ++b)
        out.push_back(static_cast<std::uint8_t>(maskBits >> (8 * b)));
    for (unsigned i = 0; i < elems; ++i) {
        const std::uint64_t raw = loadElem(line, baseBytes, i);
        std::uint64_t delta;
        if (maskBits & (1ULL << i))
            delta = raw - base;
        else
            delta = raw;
        for (unsigned b = 0; b < deltaBytes; ++b)
            out.push_back(static_cast<std::uint8_t>(delta >> (8 * b)));
    }
    return true;
}

void
BdiCompressor::decodeBaseDelta(const CompressedBlock &block,
                               unsigned baseBytes, unsigned deltaBytes,
                               std::uint8_t *out)
{
    const unsigned elems = static_cast<unsigned>(kLineBytes) / baseBytes;
    const std::uint8_t *p = block.payload.data();

    std::uint64_t base = 0;
    for (unsigned b = 0; b < baseBytes; ++b)
        base |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    p += baseBytes;

    std::uint64_t maskBits = 0;
    for (unsigned b = 0; b < elems / 8; ++b)
        maskBits |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    p += elems / 8;

    for (unsigned i = 0; i < elems; ++i) {
        std::uint64_t delta = 0;
        for (unsigned b = 0; b < deltaBytes; ++b)
            delta |= static_cast<std::uint64_t>(p[b]) << (8 * b);
        p += deltaBytes;
        // Deltas are stored truncated; sign-extend to recover them.
        const auto wide = static_cast<std::uint64_t>(
            signExtend(delta, deltaBytes * 8));
        const std::uint64_t value =
            (maskBits & (1ULL << i)) ? base + wide : wide;
        storeElem(out, baseBytes, i, value);
    }
}

CompressedBlock
BdiCompressor::compress(const std::uint8_t *line) const
{
    CompressedBlock block;

    if (allZero(line)) {
        block.encoding = Zeros;
        block.payload.assign(1, 0);
        return block;
    }
    if (repeated8(line)) {
        block.encoding = Rep8;
        block.payload.assign(line, line + 8);
        return block;
    }

    CompressedBlock best;
    best.encoding = Uncompressed;
    best.payload.assign(line, line + kLineBytes);

    std::vector<std::uint8_t> candidate;
    for (const auto &cfg : kBdiConfigs) {
        if (!tryBaseDelta(line, cfg.base, cfg.delta, candidate))
            continue;
        if (candidate.size() < best.payload.size()) {
            best.encoding = cfg.enc;
            best.payload = candidate;
        }
    }
    return best;
}

std::size_t
BdiCompressor::compressedBytes(const std::uint8_t *line) const
{
    const Elems<std::uint64_t> words64 = loadElems<std::uint64_t>(line);
    std::uint64_t any = 0;
    std::uint64_t diff = 0;
    for (const std::uint64_t w : words64) {
        any |= w;
        diff |= w ^ words64[0];
    }
    if (any == 0)
        return encodedBytes(Zeros);
    if (diff == 0)
        return encodedBytes(Rep8);

    // B8D1 is the smallest base-delta encoding, so a hit is final;
    // deciding it alone keeps small-integer lines at one short pass.
    if (validDeltaWidths<std::uint64_t, 1>(words64) != 0)
        return encodedBytes(B8D1);

    // Then one pass per base width. The encoded sizes are fixed, so the
    // answer is the smallest validated size, whatever order finds it.
    std::size_t best = encodedBytes(Uncompressed);
    const unsigned b8 = validDeltaWidths<std::uint64_t, 2, 4>(words64);
    if ((b8 & 1U) != 0)
        best = encodedBytes(B8D2);
    else if ((b8 & 2U) != 0)
        best = encodedBytes(B8D4);

    // B4D1 (22 bytes) beats anything the 8-byte pass can find.
    const Elems<std::uint32_t> words32 = loadElems<std::uint32_t>(line);
    const unsigned b4 = validDeltaWidths<std::uint32_t, 1, 2>(words32);
    if ((b4 & 1U) != 0)
        return encodedBytes(B4D1);
    if ((b4 & 2U) != 0)
        best = std::min(best, encodedBytes(B4D2));

    // 2-byte bases reach only B2D1 (38 bytes): skip them unless that
    // beats the best size already found.
    if (best <= encodedBytes(B2D1))
        return best;
    const Elems<std::uint16_t> words16 = loadElems<std::uint16_t>(line);
    return validDeltaWidths<std::uint16_t, 1>(words16) != 0
        ? encodedBytes(B2D1)
        : best;
}

void
BdiCompressor::decompress(const CompressedBlock &block,
                          std::uint8_t *out) const
{
    switch (block.encoding) {
      case Zeros:
        std::memset(out, 0, kLineBytes);
        return;
      case Rep8:
        panicIf(block.payload.size() != 8, "BDI Rep8 payload size");
        for (unsigned i = 0; i < kLineBytes / 8; ++i)
            std::memcpy(out + 8 * i, block.payload.data(), 8);
        return;
      case B8D1: decodeBaseDelta(block, 8, 1, out); return;
      case B8D2: decodeBaseDelta(block, 8, 2, out); return;
      case B8D4: decodeBaseDelta(block, 8, 4, out); return;
      case B4D1: decodeBaseDelta(block, 4, 1, out); return;
      case B4D2: decodeBaseDelta(block, 4, 2, out); return;
      case B2D1: decodeBaseDelta(block, 2, 1, out); return;
      case Uncompressed:
        panicIf(block.payload.size() != kLineBytes,
                "BDI uncompressed payload size");
        std::memcpy(out, block.payload.data(), kLineBytes);
        return;
      default:
        panic("BDI: decompress of unknown encoding");
    }
}

} // namespace bvc
