/**
 * @file
 * Cross-architecture property tests: sanity invariants every LLC
 * organization must satisfy under identical access streams, plus the
 * ordering relations the paper's Section VI results rest on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <set>

#include "compress/bdi.hh"
#include "llc_stream.hh"
#include "sim/system.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

constexpr std::size_t kSize = 32 * 1024;
constexpr std::size_t kWays = 8;

std::unique_ptr<Llc>
makeArch(LlcArch arch, const Compressor &comp, bool inclusive = true)
{
    SystemConfig cfg;
    cfg.llcBytes = kSize;
    cfg.llcWays = kWays;
    cfg.arch = arch;
    cfg.llcRepl = ReplacementKind::Nru;
    cfg.llcInclusive = inclusive;
    return makeLlc(cfg, comp);
}

/**
 * Every address an LlcResult reports is counted exactly once: the
 * traffic lists summed over the mixed stream of llc_stream.hh equal
 * the model's mem_writebacks and back_invalidations counters.
 */
void
expectResultsMatchCounters(Llc &llc, bool anyWriteback)
{
    std::uint64_t writebacks = 0;
    std::uint64_t backInvalidations = 0;
    testhelpers::driveMixedStream(
        llc, 41, 20'000, anyWriteback, [&](const LlcResult &r) {
            writebacks += r.memWritebacks.size();
            backInvalidations += r.backInvalidations.size();
        });
    const StatGroup &stats = llc.stats();
    EXPECT_GT(writebacks, 0u) << llc.name();
    EXPECT_EQ(writebacks, stats.get("mem_writebacks")) << llc.name();
    const std::vector<std::string> names = stats.names();
    const bool countsBackInvalidations =
        std::find(names.begin(), names.end(), "back_invalidations") !=
        names.end();
    if (llc.name() == "VSC-2X") {
        // Known gap: VSC reports back-invalidations but has never
        // registered the counter.
        EXPECT_FALSE(countsBackInvalidations);
    } else {
        EXPECT_TRUE(countsBackInvalidations) << llc.name();
        EXPECT_EQ(backInvalidations, stats.get("back_invalidations"))
            << llc.name();
    }
    EXPECT_EQ(stats.get("demand_hits") + stats.get("demand_misses"),
              stats.get("demand_accesses"))
        << llc.name();
}

class ArchProperty : public ::testing::TestWithParam<LlcArch>
{
  protected:
    BdiCompressor bdi_;
};

TEST_P(ArchProperty, AccessedLineIsImmediatelyResident)
{
    auto llc = makeArch(GetParam(), bdi_);
    const DataPattern pattern(DataPatternKind::MixedGood, 4);
    Rng rng(11);
    std::array<std::uint8_t, kLineBytes> line{};
    for (int step = 0; step < 5000; ++step) {
        const Addr blk = rng.range(2048) * kLineBytes;
        pattern.fillLine(blk, line.data());
        llc->access(blk, AccessType::Read, line.data());
        ASSERT_TRUE(llc->probe(blk)) << llc->name() << " step " << step;
    }
}

TEST_P(ArchProperty, NoPhantomHits)
{
    auto llc = makeArch(GetParam(), bdi_);
    const DataPattern pattern(DataPatternKind::MixedGood, 5);
    Rng rng(12);
    std::array<std::uint8_t, kLineBytes> line{};
    std::set<Addr> touched;
    for (int step = 0; step < 5000; ++step) {
        const Addr blk = rng.range(4096) * kLineBytes;
        pattern.fillLine(blk, line.data());
        const LlcResult r = llc->access(blk, AccessType::Read,
                                        line.data());
        if (r.hit) {
            ASSERT_TRUE(touched.count(blk))
                << llc->name() << " hit on never-touched line";
        }
        touched.insert(blk);
    }
}

TEST_P(ArchProperty, DemandStatsAreConsistent)
{
    auto llc = makeArch(GetParam(), bdi_);
    const DataPattern pattern(DataPatternKind::MixedGood, 6);
    Rng rng(13);
    std::array<std::uint8_t, kLineBytes> line{};
    for (int step = 0; step < 8000; ++step) {
        const Addr blk = rng.range(2048) * kLineBytes;
        pattern.fillLine(blk, line.data());
        llc->access(blk, AccessType::Read, line.data());
    }
    const StatGroup &stats = llc->stats();
    EXPECT_EQ(stats.get("demand_hits") + stats.get("demand_misses"),
              stats.get("demand_accesses"))
        << llc->name();
}

TEST_P(ArchProperty, ResultTrafficMatchesCountersUnderMixedStream)
{
    auto llc = makeArch(GetParam(), bdi_);
    expectResultsMatchCounters(*llc, false);
}

TEST(ArchNonInclusive, ResultTrafficMatchesCountersUnderMixedStream)
{
    // Section IV.B.3: writebacks may also reach absent and
    // Victim-resident blocks.
    const BdiCompressor bdi;
    auto llc = makeArch(LlcArch::BaseVictim, bdi, false);
    expectResultsMatchCounters(*llc, true);
}

TEST_P(ArchProperty, WritebackToAbsentBlockViolatesInclusion)
{
    const DataPattern pattern(DataPatternKind::MixedGood, 3);
    std::array<std::uint8_t, kLineBytes> line{};
    pattern.fillLine(0, line.data());
    EXPECT_DEATH(
        {
            // The model's own check, not the shadow checker's.
            ::setenv("BVC_CHECK", "0", 1);
            auto llc = makeArch(GetParam(), bdi_);
            llc->access(0, AccessType::Writeback, line.data());
        },
        "violates inclusion");
}

TEST_P(ArchProperty, DeterministicAcrossInstances)
{
    auto a = makeArch(GetParam(), bdi_);
    auto b = makeArch(GetParam(), bdi_);
    const DataPattern pattern(DataPatternKind::MixedGood, 7);
    Rng rng(14);
    std::array<std::uint8_t, kLineBytes> line{};
    for (int step = 0; step < 5000; ++step) {
        const Addr blk = rng.range(2048) * kLineBytes;
        pattern.fillLine(blk, line.data());
        const LlcResult ra = a->access(blk, AccessType::Read,
                                       line.data());
        const LlcResult rb = b->access(blk, AccessType::Read,
                                       line.data());
        ASSERT_EQ(ra.hit, rb.hit) << a->name();
        ASSERT_EQ(ra.memWritebacks, rb.memWritebacks);
        ASSERT_EQ(ra.backInvalidations, rb.backInvalidations);
    }
    EXPECT_EQ(a->validLines(), b->validLines());
}

TEST_P(ArchProperty, ValidLinesNeverExceedTagCapacity)
{
    auto llc = makeArch(GetParam(), bdi_);
    const DataPattern pattern(DataPatternKind::MixedGood, 8);
    Rng rng(15);
    std::array<std::uint8_t, kLineBytes> line{};
    const std::size_t physicalLines = kSize / kLineBytes;
    // Every organization here has at most 2x tags (DCC: 4 sub-blocks
    // per super-block tag -> up to 4x).
    const std::size_t tagLimit = GetParam() == LlcArch::Dcc
        ? 4 * physicalLines
        : 2 * physicalLines;
    for (int step = 0; step < 20000; ++step) {
        const Addr blk = rng.range(4096) * kLineBytes;
        pattern.fillLine(blk, line.data());
        llc->access(blk, AccessType::Read, line.data());
        if (step % 2000 == 0) {
            ASSERT_LE(llc->validLines(), tagLimit) << llc->name();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ArchProperty,
    ::testing::Values(LlcArch::Uncompressed, LlcArch::TwoTagNaive,
                      LlcArch::TwoTagModified, LlcArch::BaseVictim,
                      LlcArch::Vsc, LlcArch::Dcc),
    [](const ::testing::TestParamInfo<LlcArch> &info) {
        std::string name = llcArchName(info.param);
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(ArchOrdering, CompressedArchesHoldAtLeastAsManyLines)
{
    // On compressible data, every compressed organization must retain
    // at least as many lines as the uncompressed cache once warm.
    const BdiCompressor bdi;
    auto unc = makeArch(LlcArch::Uncompressed, bdi);
    auto bv = makeArch(LlcArch::BaseVictim, bdi);
    auto vsc = makeArch(LlcArch::Vsc, bdi);
    const DataPattern pattern(DataPatternKind::SmallInts, 9);
    Rng rng(16);
    std::array<std::uint8_t, kLineBytes> line{};
    for (int step = 0; step < 30000; ++step) {
        const Addr blk = rng.range(4096) * kLineBytes;
        pattern.fillLine(blk, line.data());
        unc->access(blk, AccessType::Read, line.data());
        bv->access(blk, AccessType::Read, line.data());
        vsc->access(blk, AccessType::Read, line.data());
    }
    EXPECT_GE(bv->validLines(), unc->validLines());
    EXPECT_GE(vsc->validLines(), unc->validLines());
}

TEST(ArchOrdering, BaseVictimHitsSupersetHoldsWhereTwoTagDoesNot)
{
    // The central claim of Section III/IV: the two-tag schemes can
    // lose baseline hits; Base-Victim cannot. Drive all three with a
    // stream combining hot reuse + compressible churn and compare
    // against the uncompressed reference.
    const BdiCompressor bdi;
    auto unc = makeArch(LlcArch::Uncompressed, bdi);
    auto naive = makeArch(LlcArch::TwoTagNaive, bdi);
    auto bv = makeArch(LlcArch::BaseVictim, bdi);
    const DataPattern pattern(DataPatternKind::MixedGood, 10);
    Rng rng(17);
    std::array<std::uint8_t, kLineBytes> line{};
    std::uint64_t naiveLostHits = 0;
    for (int step = 0; step < 60000; ++step) {
        const Addr blk = rng.chance(0.6)
            ? rng.range(400) * kLineBytes           // hot set
            : (1000 + rng.range(8192)) * kLineBytes; // churn
        pattern.fillLine(blk, line.data());
        const bool uncHit =
            unc->access(blk, AccessType::Read, line.data()).hit;
        const bool naiveHit =
            naive->access(blk, AccessType::Read, line.data()).hit;
        const bool bvHit =
            bv->access(blk, AccessType::Read, line.data()).hit;
        if (uncHit) {
            ASSERT_TRUE(bvHit) << "Base-Victim lost a baseline hit";
            naiveLostHits += !naiveHit;
        }
    }
    // The naive scheme demonstrably loses baseline hits (the paper's
    // negative interaction); Base-Victim never does (asserted above).
    EXPECT_GT(naiveLostHits, 0u);
}

} // namespace
} // namespace bvc
