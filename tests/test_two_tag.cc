/** @file Unit tests for the two-tag compressed LLC variants (Sec III). */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/two_tag_array.hh"
#include "test_lines.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

using namespace testhelpers;

// 16KB, 4 physical ways -> 64 sets; same-set stride is 4KB.
constexpr std::size_t kSize = 16 * 1024;
constexpr std::size_t kWays = 4;
constexpr Addr kSetStride = 64 * kLineBytes;

Addr
setAddr(unsigned n)
{
    return 0x10000 + static_cast<Addr>(n) * kSetStride;
}

class TwoTagTest : public ::testing::Test
{
  protected:
    BdiCompressor bdi_;
};

TEST_F(TwoTagTest, CompressiblePairsDoubleCapacity)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line line = smallLine(); // 5 segments: two fit per way
    for (unsigned i = 0; i < 2 * kWays; ++i)
        llc.access(setAddr(i), AccessType::Read, line.data());
    for (unsigned i = 0; i < 2 * kWays; ++i)
        EXPECT_TRUE(llc.probe(setAddr(i))) << i;
    EXPECT_TRUE(llc.checkInvariants());
}

TEST_F(TwoTagTest, IncompressibleLinesUseOneTagPerWay)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    for (unsigned i = 0; i < 2 * kWays; ++i) {
        const Line line = randomLine(i);
        llc.access(setAddr(i), AccessType::Read, line.data());
    }
    // Only ~kWays incompressible lines can be resident.
    unsigned resident = 0;
    for (unsigned i = 0; i < 2 * kWays; ++i)
        resident += llc.probe(setAddr(i));
    EXPECT_LE(resident, kWays);
    EXPECT_TRUE(llc.checkInvariants());
}

TEST_F(TwoTagTest, NaiveEvictsPartnerOnMisfit)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line small = smallLine();
    // Fill the set with 8 compressible lines (4 ways x 2 tags).
    for (unsigned i = 0; i < 2 * kWays; ++i)
        llc.access(setAddr(i), AccessType::Read, small.data());
    // An incompressible fill cannot share a way: its partner must go.
    const Line incompressible = randomLine(42);
    const LlcResult result =
        llc.access(setAddr(100), AccessType::Read,
                   incompressible.data());
    EXPECT_FALSE(result.hit);
    // Victim + partner both back-invalidated.
    EXPECT_EQ(result.backInvalidations.size(), 2u);
    EXPECT_GE(llc.stats().get("partner_evictions_on_fill"), 1u);
    EXPECT_TRUE(llc.checkInvariants());
}

TEST_F(TwoTagTest, ModifiedAvoidsPartnerEvictionWhenPossible)
{
    TwoTagModifiedLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line small = smallLine();
    for (unsigned i = 0; i < 2 * kWays; ++i)
        llc.access(setAddr(i), AccessType::Read, small.data());
    // A 5-segment fill fits beside any 5-segment partner: the modified
    // policy must find a single-eviction victim.
    const LlcResult result =
        llc.access(setAddr(100), AccessType::Read, small.data());
    EXPECT_EQ(result.backInvalidations.size(), 1u);
    EXPECT_EQ(llc.stats().get("partner_evictions_on_fill"), 0u);
    EXPECT_TRUE(llc.checkInvariants());
}

TEST_F(TwoTagTest, ModifiedFallsBackWhenNothingFits)
{
    TwoTagModifiedLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    // Fill with incompressible lines: any further incompressible fill
    // must fall back to partner victimization semantics (here the
    // partner slots are empty, so a single eviction still suffices).
    for (unsigned i = 0; i < kWays; ++i) {
        const Line line = randomLine(i);
        llc.access(setAddr(i), AccessType::Read, line.data());
    }
    const Line line = randomLine(99);
    const LlcResult result =
        llc.access(setAddr(100), AccessType::Read, line.data());
    EXPECT_FALSE(result.hit);
    EXPECT_TRUE(llc.probe(setAddr(100)));
    EXPECT_TRUE(llc.checkInvariants());
    (void)result;
}

TEST_F(TwoTagTest, WritebackGrowthEvictsPartner)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line small = smallLine();
    // NRU fills the first two fills into tags 0 and 1 of way 0: the
    // two small lines share one physical way.
    llc.access(setAddr(0), AccessType::Read, small.data());
    llc.access(setAddr(1), AccessType::Read, small.data());
    ASSERT_TRUE(llc.probe(setAddr(1)));
    // Rewriting line 0 as incompressible grows it past its partner.
    const Line grown = randomLine(7);
    llc.access(setAddr(0), AccessType::Writeback, grown.data());
    EXPECT_TRUE(llc.checkInvariants());
    EXPECT_TRUE(llc.probe(setAddr(0)));
    EXPECT_FALSE(llc.probe(setAddr(1)));
    EXPECT_EQ(llc.stats().get("partner_evictions_on_write"), 1u);
}

TEST_F(TwoTagTest, DirtyEvictionsWriteBack)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line line = randomLine(1);
    llc.access(setAddr(0), AccessType::Read, line.data());
    llc.access(setAddr(0), AccessType::Writeback, line.data());
    // Evict it with incompressible fills.
    std::size_t writebacks = 0;
    for (unsigned i = 1; i <= 2 * kWays; ++i) {
        const Line filler = randomLine(i + 10);
        const LlcResult r =
            llc.access(setAddr(i), AccessType::Read, filler.data());
        writebacks += r.memWritebacks.size();
    }
    EXPECT_GE(writebacks, 1u);
    EXPECT_EQ(llc.stats().get("mem_writebacks"), writebacks);
}

TEST_F(TwoTagTest, ExtraTagLatencyOnEveryAccess)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line small = smallLine();
    const LlcResult miss =
        llc.access(setAddr(0), AccessType::Read, small.data());
    EXPECT_EQ(miss.extraLatency, 1u); // +1 tag cycle
    const LlcResult hit =
        llc.access(setAddr(0), AccessType::Read, small.data());
    EXPECT_EQ(hit.extraLatency, 3u); // +1 tag, +2 decompression
}

TEST_F(TwoTagTest, ZeroLinesSkipDecompressionLatency)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line zero = zeroLine();
    llc.access(setAddr(0), AccessType::Read, zero.data());
    const LlcResult hit =
        llc.access(setAddr(0), AccessType::Read, zero.data());
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.extraLatency, 1u); // tag only
}

TEST_F(TwoTagTest, WritebackHitDoesNotDecompress)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line line = smallLine(); // compressible: 5 segments
    llc.access(setAddr(0), AccessType::Read, line.data());
    ASSERT_EQ(llc.stats().get("decompressions"), 0u);

    // A writeback overwrites the whole line: the stored copy is never
    // expanded, so neither the counter nor the latency may move.
    const LlcResult wb =
        llc.access(setAddr(0), AccessType::Writeback, line.data());
    EXPECT_TRUE(wb.hit);
    EXPECT_EQ(wb.extraLatency, 1u); // tag lookup only
    EXPECT_EQ(llc.stats().get("decompressions"), 0u);

    const LlcResult rd =
        llc.access(setAddr(0), AccessType::Read, line.data());
    EXPECT_TRUE(rd.hit);
    EXPECT_GT(rd.extraLatency, 1u);
    EXPECT_EQ(llc.stats().get("decompressions"), 1u);
}

TEST_F(TwoTagTest, WritebackMissPanics)
{
    TwoTagNaiveLlc llc(kSize, kWays, ReplacementKind::Nru, bdi_);
    const Line line = smallLine();
    EXPECT_DEATH(llc.access(setAddr(0), AccessType::Writeback,
                            line.data()),
                 "inclusion");
}

class TwoTagFuzz : public ::testing::TestWithParam<ReplacementKind>
{
};

TEST_P(TwoTagFuzz, PairFitInvariantUnderRandomTraffic)
{
    const BdiCompressor bdi;
    TwoTagNaiveLlc naive(kSize, kWays, GetParam(), bdi);
    TwoTagModifiedLlc modified(kSize, kWays, GetParam(), bdi);
    const DataPattern pattern(DataPatternKind::MixedGood, 5);
    Rng rng(77);
    Line line{};
    for (int step = 0; step < 20000; ++step) {
        const Addr blk = 0x4000 + rng.range(4096) * kLineBytes;
        pattern.fillLine(blk, line.data());
        const AccessType type = rng.chance(0.1) &&
                naive.probe(blk) && modified.probe(blk)
            ? AccessType::Writeback
            : AccessType::Read;
        if (type == AccessType::Writeback) {
            naive.access(blk, type, line.data());
            modified.access(blk, type, line.data());
        } else {
            naive.access(blk, AccessType::Read, line.data());
            modified.access(blk, AccessType::Read, line.data());
        }
        if (step % 500 == 0) {
            ASSERT_TRUE(naive.checkInvariants());
            ASSERT_TRUE(modified.checkInvariants());
        }
    }
    ASSERT_TRUE(naive.checkInvariants());
    ASSERT_TRUE(modified.checkInvariants());
    // The modified policy must not be worse at retaining lines.
    EXPECT_GE(modified.stats().get("demand_hits") + 2000,
              naive.stats().get("demand_hits"));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TwoTagFuzz,
    ::testing::Values(ReplacementKind::Nru, ReplacementKind::Lru,
                      ReplacementKind::Srrip),
    [](const ::testing::TestParamInfo<ReplacementKind> &info) {
        return replacementName(info.param);
    });

} // namespace
} // namespace bvc
