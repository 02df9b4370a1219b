/**
 * @file
 * Property tests over every compression algorithm: exact round-trip,
 * bounded size, and the zero-line special case — the invariants the
 * compressed cache models rely on, for all codecs (DESIGN.md §5).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <string>

#include "compress/factory.hh"
#include "core/base_victim_cache.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

using Line = std::array<std::uint8_t, kLineBytes>;

std::string
hex(const Line &line)
{
    std::string out;
    char byte[3] = {};
    for (const std::uint8_t b : line) {
        std::snprintf(byte, sizeof(byte), "%02x", b);
        out += byte;
    }
    return out;
}

bool
isZeroLine(const Line &line)
{
    return std::all_of(line.begin(), line.end(),
                       [](std::uint8_t b) { return b == 0; });
}

/** 0, +-1 and both sides of every signed 1-, 2- and 4-byte limit. */
constexpr std::int64_t kDeltaEdges[] = {
    0,           1,           -1,          127,         128,
    -128,        -129,        32767,       32768,       -32768,
    -32769,      2147483647,  2147483648,  -2147483648, -2147483649,
};

/**
 * A line of `width`-byte elements at the edges of BDI's delta ranges,
 * where a size kernel can disagree with the encode path. Each element
 * is a delta-range edge, a random value shifted right by a random
 * amount, or a random in-range delta, and most are offset from one
 * line-wide base (random, shifted, or at the width's signed wrap
 * point). A random number of leading elements skip the base, so they
 * fit the zero range and the base sits later in the line.
 */
Line
boundaryLine(Rng &rng, unsigned width)
{
    const unsigned elems = static_cast<unsigned>(kLineBytes) / width;
    const std::uint64_t wrap = 1ULL << (8 * width - 1);
    std::uint64_t base = 0;
    switch (rng.range(4)) {
      case 0: base = rng.next(); break;
      case 1: base = rng.next() >> rng.range(64); break;
      case 2: base = wrap; break;
      default: base = wrap - 1 - rng.range(2); break;
    }
    // Width of the in-range deltas: 1 byte up to half the element.
    const unsigned deltaBits =
        8U << rng.range(static_cast<std::uint64_t>(std::countr_zero(width)));
    constexpr double kEdgeChance[] = {0.0, 0.03, 0.1, 0.5};
    constexpr double kBaseChance[] = {0.0, 0.5, 0.9, 1.0};
    const double edgeChance = kEdgeChance[rng.range(4)];
    const double baseChance = kBaseChance[rng.range(4)];
    const unsigned lead =
        rng.chance(0.3) ? static_cast<unsigned>(rng.range(elems)) : 0;

    Line line{};
    for (unsigned i = 0; i < elems; ++i) {
        std::uint64_t v = 0;
        if (rng.chance(edgeChance))
            v = static_cast<std::uint64_t>(
                kDeltaEdges[rng.range(std::size(kDeltaEdges))]);
        else if (rng.chance(0.1))
            v = rng.next() >> rng.range(64);
        else
            v = (rng.next() >> (64 - deltaBits)) -
                (1ULL << (deltaBits - 1));
        if (i >= lead && rng.chance(baseChance))
            v += base;
        std::memcpy(line.data() + static_cast<std::size_t>(i) * width, &v,
                    width);
    }
    return line;
}

class CompressorProperty
    : public ::testing::TestWithParam<CompressorKind>
{
  protected:
    std::unique_ptr<Compressor> comp_ = makeCompressor(GetParam());
};

TEST_P(CompressorProperty, RoundTripsRandomData)
{
    Rng rng(2024);
    Line line{}, out{};
    for (int trial = 0; trial < 500; ++trial) {
        for (auto &byte : line)
            byte = static_cast<std::uint8_t>(rng.range(256));
        const CompressedBlock block = comp_->compress(line.data());
        comp_->decompress(block, out.data());
        ASSERT_EQ(line, out) << comp_->name() << " trial " << trial;
    }
}

TEST_P(CompressorProperty, RoundTripsAllDataPatterns)
{
    const DataPatternKind kinds[] = {
        DataPatternKind::Zeros,      DataPatternKind::SmallInts,
        DataPatternKind::PointerHeap, DataPatternKind::NarrowInts,
        DataPatternKind::Floats,     DataPatternKind::Random,
        DataPatternKind::MixedGood,  DataPatternKind::MixedPoor,
    };
    Line line{}, out{};
    for (const auto kind : kinds) {
        const DataPattern pattern(kind, 77);
        for (Addr blk = 0; blk < 200 * kLineBytes; blk += kLineBytes) {
            pattern.fillLine(blk, line.data());
            const CompressedBlock block = comp_->compress(line.data());
            comp_->decompress(block, out.data());
            ASSERT_EQ(line, out)
                << comp_->name() << " on "
                << DataPattern::kindName(kind);
        }
    }
}

TEST_P(CompressorProperty, NeverExpandsBeyondLineSize)
{
    Rng rng(31337);
    Line line{};
    for (int trial = 0; trial < 500; ++trial) {
        for (auto &byte : line)
            byte = static_cast<std::uint8_t>(rng.range(256));
        EXPECT_LE(comp_->compress(line.data()).sizeBytes(), kLineBytes);
    }
}

TEST_P(CompressorProperty, ZeroLineIsMaximallyCompressible)
{
    Line line{};
    const CompressedBlock block = comp_->compress(line.data());
    // Worst case among the codecs is SC2-lite: 64 x its 1-bit zero
    // code = 8 bytes; everything else is 4 bytes or less.
    EXPECT_LE(block.sizeBytes(), 8u) << comp_->name();
    Line out{};
    out.fill(0xAA);
    comp_->decompress(block, out.data());
    EXPECT_EQ(out, line);
}

// compressedSegmentsFor() is what the models store in tag metadata: a
// zero line takes 0 segments (tag-only), any other line the encode
// path's size in segments.
TEST_P(CompressorProperty, CompressedSegmentsConsistentWithBytes)
{
    Line line{};
    EXPECT_EQ(compressedSegmentsFor(*comp_, line.data()).get(), 0U);
    Rng rng(404);
    for (int trial = 0; trial < 100; ++trial) {
        for (auto &byte : line)
            byte = rng.chance(0.5)
                ? 0
                : static_cast<std::uint8_t>(rng.range(256));
        const unsigned segs =
            compressedSegmentsFor(*comp_, line.data()).get();
        const std::size_t bytes = comp_->compress(line.data()).sizeBytes();
        EXPECT_EQ(segs, isZeroLine(line) ? 0U : bytesToSegments(bytes));
        EXPECT_LE(segs, kSegmentsPerLine);
    }
}

// The size-only fast path must agree with the encode path on every
// input: the cache models trust compressedBytes() to predict exactly
// what compress() would have produced (docs/compression.md).
TEST_P(CompressorProperty, SizeOnlyPathMatchesEncodePath)
{
    const DataPatternKind kinds[] = {
        DataPatternKind::Zeros,      DataPatternKind::SmallInts,
        DataPatternKind::PointerHeap, DataPatternKind::NarrowInts,
        DataPatternKind::Floats,     DataPatternKind::Random,
        DataPatternKind::MixedGood,  DataPatternKind::MixedPoor,
    };
    Line line{};
    for (const auto kind : kinds) {
        const DataPattern pattern(kind, 919);
        for (Addr blk = 0; blk < 200 * kLineBytes; blk += kLineBytes) {
            pattern.fillLine(blk, line.data());
            ASSERT_EQ(comp_->compressedBytes(line.data()),
                      comp_->compress(line.data()).sizeBytes())
                << comp_->name() << " on "
                << DataPattern::kindName(kind) << " blk " << blk;
        }
    }
    Rng rng(7777);
    for (int trial = 0; trial < 500; ++trial) {
        for (auto &byte : line)
            byte = rng.chance(0.5)
                ? 0
                : static_cast<std::uint8_t>(rng.range(256));
        ASSERT_EQ(comp_->compressedBytes(line.data()),
                  comp_->compress(line.data()).sizeBytes())
            << comp_->name() << " trial " << trial;
    }
    // Boundary corpus over 2-, 4- and 8-byte elements. BDI gets the
    // most lines: its size kernel is the one that can drift.
    const int boundaryLines =
        GetParam() == CompressorKind::Bdi ? 240'000 : 24'000;
    Rng edgeRng(1609);
    for (int trial = 0; trial < boundaryLines; ++trial) {
        const unsigned width = 2U << (trial % 3);
        line = boundaryLine(edgeRng, width);
        const std::size_t bytes = comp_->compress(line.data()).sizeBytes();
        ASSERT_EQ(comp_->compressedBytes(line.data()), bytes)
            << comp_->name() << " boundary line " << hex(line);
        ASSERT_EQ(compressedSegmentsFor(*comp_, line.data()).get(),
                  isZeroLine(line) ? 0U : bytesToSegments(bytes))
            << comp_->name() << " boundary line " << hex(line);
    }
}

// Randomized Base-Victim workout: a stream of conflicting reads and
// writebacks with shifting data patterns must keep every structural
// invariant (pair-fit, no duplicates, victim cleanliness) intact no
// matter which codec supplies the sizes.
TEST_P(CompressorProperty, BaseVictimInvariantsHoldUnderFuzz)
{
    // 8KB, 4 physical ways -> 32 sets; a 64-line address pool spanning
    // two sets keeps the sets under constant replacement pressure.
    BaseVictimLlc llc(8 * 1024, 4, ReplacementKind::Lru,
                      VictimReplKind::Ecm, *comp_);
    const DataPatternKind kinds[] = {
        DataPatternKind::Zeros,     DataPatternKind::SmallInts,
        DataPatternKind::Random,    DataPatternKind::MixedGood,
        DataPatternKind::MixedPoor,
    };
    Rng rng(GetParam() == CompressorKind::Bdi ? 1 : 2);
    Line line{};
    for (int step = 0; step < 2000; ++step) {
        const Addr blk =
            0x40000 + rng.range(64) * (llc.numSets() / 2) * kLineBytes;
        const DataPattern pattern(kinds[step % 5],
                                  static_cast<unsigned>(step / 5));
        pattern.fillLine(blk, line.data());
        // Writebacks must respect inclusion: only lines the baseline
        // cache holds can be dirtied by the upper levels.
        const bool writeback = rng.chance(0.3) && llc.probeBase(blk);
        llc.access(blk,
                   writeback ? AccessType::Writeback : AccessType::Read,
                   line.data());
        ASSERT_TRUE(llc.checkInvariants())
            << comp_->name() << " step " << step;
    }
}

TEST_P(CompressorProperty, DeterministicAcrossCalls)
{
    Rng rng(55);
    Line line{};
    for (auto &byte : line)
        byte = static_cast<std::uint8_t>(rng.range(256));
    const CompressedBlock a = comp_->compress(line.data());
    const CompressedBlock b = comp_->compress(line.data());
    EXPECT_EQ(a.encoding, b.encoding);
    EXPECT_EQ(a.payload, b.payload);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, CompressorProperty,
    ::testing::ValuesIn(allCompressorKinds()),
    [](const ::testing::TestParamInfo<CompressorKind> &info) {
        std::string name = makeCompressor(info.param)->name();
        std::string clean;
        for (const char c : name)
            if (std::isalnum(static_cast<unsigned char>(c)))
                clean += c;
        return clean;
    });

TEST(CompressorFactory, ByNameMatchesByKind)
{
    EXPECT_EQ(makeCompressor("bdi")->name(), "BDI");
    EXPECT_EQ(makeCompressor("fpc")->name(), "FPC");
    EXPECT_EQ(makeCompressor("cpack")->name(), "C-Pack");
    EXPECT_EQ(makeCompressor("zero")->name(), "Zero");
}

TEST(CompressorFactoryDeathTest, UnknownNameIsFatal)
{
    EXPECT_EXIT(makeCompressor("lz4"), ::testing::ExitedWithCode(1),
                "unknown compressor");
}

} // namespace
} // namespace bvc
