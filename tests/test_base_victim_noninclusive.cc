/**
 * @file
 * Tests for the non-inclusive Base-Victim configuration of Section
 * IV.B.3: victim lines may be dirty, write hits to the Victim Cache
 * promote like read hits (with recompression), dirty victim evictions
 * write back to memory, and the mirror/hit-superset guarantees still
 * hold. Also covers the 8-byte segment-quantum variant (the paper's
 * worked examples) against the default 4-byte evaluation granularity.
 */

#include <gtest/gtest.h>

#include "core/base_victim_cache.hh"
#include "core/uncompressed_llc.hh"
#include "test_lines.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

using namespace testhelpers;

constexpr std::size_t kSize = 16 * 1024;
constexpr std::size_t kWays = 4;
constexpr Addr kSetStride = 64 * kLineBytes;

Addr
setAddr(unsigned n)
{
    return 0x40000 + static_cast<Addr>(n) * kSetStride;
}

class NonInclusiveTest : public ::testing::Test
{
  protected:
    NonInclusiveTest()
        : llc_(kSize, kWays, ReplacementKind::Lru, VictimReplKind::Ecm,
               bdi_, /*inclusive=*/false)
    {
    }

    void
    fillBase()
    {
        const Line small = smallLine();
        for (unsigned i = 0; i < kWays; ++i)
            llc_.access(setAddr(i), AccessType::Read, small.data());
    }

    BdiCompressor bdi_;
    BaseVictimLlc llc_;
};

TEST_F(NonInclusiveTest, DirtyVictimParksWithoutWriteback)
{
    fillBase();
    const Line small = smallLine();
    // Dirty line 0, then evict it: in non-inclusive mode it parks
    // dirty with NO writeback and NO back-invalidation.
    llc_.access(setAddr(0), AccessType::Writeback, small.data());
    llc_.access(setAddr(1), AccessType::Read, small.data());
    llc_.access(setAddr(2), AccessType::Read, small.data());
    llc_.access(setAddr(3), AccessType::Read, small.data());
    const LlcResult result =
        llc_.access(setAddr(4), AccessType::Read, small.data());
    EXPECT_TRUE(result.memWritebacks.empty());
    EXPECT_TRUE(result.backInvalidations.empty());
    EXPECT_TRUE(llc_.probeVictim(setAddr(0)));
    EXPECT_TRUE(llc_.checkInvariants());
}

TEST_F(NonInclusiveTest, DroppedDirtyVictimWritesBack)
{
    // Incompressible dirty lines can never park: eviction writes back.
    for (unsigned i = 0; i < kWays; ++i) {
        const Line line = randomLine(i);
        llc_.access(setAddr(i), AccessType::Read, line.data());
    }
    const Line dirty = randomLine(0);
    llc_.access(setAddr(0), AccessType::Writeback, dirty.data());
    llc_.access(setAddr(1), AccessType::Read, randomLine(1).data());
    llc_.access(setAddr(2), AccessType::Read, randomLine(2).data());
    llc_.access(setAddr(3), AccessType::Read, randomLine(3).data());
    const LlcResult result = llc_.access(
        setAddr(4), AccessType::Read, randomLine(4).data());
    ASSERT_EQ(result.memWritebacks.size(), 1u);
    EXPECT_EQ(result.memWritebacks[0], setAddr(0));
    EXPECT_FALSE(llc_.probe(setAddr(0)));
}

TEST_F(NonInclusiveTest, DisplacedDirtyVictimWritesBack)
{
    fillBase();
    const Line small = smallLine();
    // Park a dirty line 0 in the victim cache.
    llc_.access(setAddr(0), AccessType::Writeback, small.data());
    llc_.access(setAddr(1), AccessType::Read, small.data());
    llc_.access(setAddr(2), AccessType::Read, small.data());
    llc_.access(setAddr(3), AccessType::Read, small.data());
    llc_.access(setAddr(4), AccessType::Read, small.data());
    ASSERT_TRUE(llc_.probeVictim(setAddr(0)));

    // Churn until the dirty victim gets displaced; its eviction must
    // produce exactly one writeback somewhere along the way.
    std::size_t writebacks = 0;
    for (unsigned i = 5; i < 40 && llc_.probeVictim(setAddr(0)); ++i) {
        const LlcResult r =
            llc_.access(setAddr(i), AccessType::Read, small.data());
        for (const Addr addr : r.memWritebacks)
            writebacks += addr == setAddr(0);
    }
    EXPECT_FALSE(llc_.probeVictim(setAddr(0)));
    EXPECT_EQ(writebacks, 1u);
}

TEST_F(NonInclusiveTest, WritebackHitOnVictimPromotesDirty)
{
    fillBase();
    const Line small = smallLine();
    llc_.access(setAddr(4), AccessType::Read, small.data());
    ASSERT_TRUE(llc_.probeVictim(setAddr(0)));

    // Section IV.B.3: "the Victim Cache write hit is handled in
    // exactly the same way as a Victim Cache read hit", with the line
    // recompressed to its new size, then promoted.
    const Line rewritten = mediumLine(3);
    const LlcResult result =
        llc_.access(setAddr(0), AccessType::Writeback,
                    rewritten.data());
    EXPECT_TRUE(result.hit);
    EXPECT_TRUE(result.victimHit);
    EXPECT_TRUE(llc_.probeBase(setAddr(0)));
    EXPECT_FALSE(llc_.probeVictim(setAddr(0)));
    EXPECT_EQ(llc_.stats().get("victim_write_hits"), 1u);
    EXPECT_TRUE(llc_.checkInvariants());
}

TEST_F(NonInclusiveTest, WritebackMissAllocatesDirtyLine)
{
    const Line small = smallLine();
    const LlcResult result =
        llc_.access(setAddr(9), AccessType::Writeback, small.data());
    EXPECT_FALSE(result.hit);
    EXPECT_TRUE(llc_.probeBase(setAddr(9)));
    EXPECT_EQ(llc_.stats().get("writeback_fills"), 1u);
}

TEST_F(NonInclusiveTest, NoBackInvalidationsEver)
{
    const DataPattern pattern(DataPatternKind::MixedGood, 8);
    Rng rng(21);
    Line line{};
    std::size_t backInvals = 0;
    for (int step = 0; step < 20000; ++step) {
        const Addr blk = 0x9000 + rng.range(2048) * kLineBytes;
        pattern.fillLine(blk, line.data());
        const bool writeback = rng.chance(0.2);
        const LlcResult r = llc_.access(
            blk, writeback ? AccessType::Writeback : AccessType::Read,
            line.data());
        backInvals += r.backInvalidations.size();
    }
    EXPECT_EQ(backInvals, 0u);
    EXPECT_TRUE(llc_.checkInvariants());
}

TEST_F(NonInclusiveTest, MirrorInvariantStillHolds)
{
    UncompressedLlc shadow(kSize, kWays, ReplacementKind::Lru);
    const DataPattern pattern(DataPatternKind::MixedGood, 13);
    Rng rng(5);
    Line line{};
    for (int step = 0; step < 20000; ++step) {
        const Addr blk = rng.range(1500) * kLineBytes;
        pattern.fillLine(blk, line.data());
        // Writebacks only to lines both caches hold in their base
        // content, so the shadow (inclusive) never sees a WB miss.
        AccessType type = AccessType::Read;
        if (rng.chance(0.1) && llc_.probeBase(blk) && shadow.probe(blk))
            type = AccessType::Writeback;
        const LlcResult rs = shadow.access(blk, type, line.data());
        const LlcResult rb = llc_.access(blk, type, line.data());
        if (rs.hit) {
            ASSERT_TRUE(rb.hit) << step;
        }
    }
    for (const SetIdx set : indexRange<SetIdx>(llc_.numSets()))
        ASSERT_EQ(llc_.baseSetContents(set), shadow.baseSetContents(set));
}

TEST(SegmentQuantum, EightByteAlignmentRoundsSizesUp)
{
    const BdiCompressor bdi;
    BaseVictimLlc coarse(kSize, kWays, ReplacementKind::Lru,
                         VictimReplKind::Ecm, bdi, true,
                         /*segmentQuantumBytes=*/8);
    const Line small = smallLine(); // 17B: 5 segs at 4B, 6 segs at 8B
    // Fill and park; with 8B granularity a 17B line occupies 24B.
    for (unsigned i = 0; i <= kWays; ++i)
        coarse.access(setAddr(i), AccessType::Read, small.data());
    EXPECT_TRUE(coarse.probeVictim(setAddr(0)));
    EXPECT_TRUE(coarse.checkInvariants());
}

TEST(SegmentQuantum, CoarseGranularityPairsFewerLines)
{
    const BdiCompressor bdi;
    // A 5-segment line next to an 11-segment base fits exactly at 4B
    // granularity (5+11=16) but not at 8B (6+12=18): the coarse size
    // field wastes pairing opportunities (Section IV.C trade-off).
    BaseVictimLlc fine(kSize, kWays, ReplacementKind::Lru,
                       VictimReplKind::Ecm, bdi, true, 4);
    BaseVictimLlc coarse(kSize, kWays, ReplacementKind::Lru,
                         VictimReplKind::Ecm, bdi, true, 8);

    const Line small = smallLine(); // 17B: 5 segs / 6 coarse segs
    for (BaseVictimLlc *llc : {&fine, &coarse}) {
        llc->access(setAddr(0), AccessType::Read, small.data());
        for (unsigned i = 1; i <= kWays; ++i) {
            const Line big = largeLine(i); // 41B: 11 / 12 segments
            llc->access(setAddr(i), AccessType::Read, big.data());
        }
    }
    // The evicted small line pairs with an 11-segment base only under
    // the finer quantization.
    EXPECT_TRUE(fine.probeVictim(setAddr(0)));
    EXPECT_FALSE(coarse.probeVictim(setAddr(0)));
    EXPECT_FALSE(coarse.probe(setAddr(0)));
}

TEST(SegmentQuantumDeathTest, RejectsNonDividingQuantum)
{
    const BdiCompressor bdi;
    EXPECT_DEATH(BaseVictimLlc(kSize, kWays, ReplacementKind::Lru,
                               VictimReplKind::Ecm, bdi, true, 24),
                 "quantum");
}

} // namespace
} // namespace bvc
