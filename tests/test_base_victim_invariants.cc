/**
 * @file
 * Property tests for the paper's central guarantee (DESIGN.md §5): a
 * Base-Victim cache's Baseline section mirrors an uncompressed cache
 * fed the same access stream, at every step, for every baseline
 * replacement policy — and therefore never has a lower hit rate.
 */

#include <gtest/gtest.h>

#include <tuple>

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

constexpr std::size_t kSize = 32 * 1024;
constexpr std::size_t kWays = 8;

using MirrorParam =
    std::tuple<ReplacementKind, VictimReplKind, DataPatternKind>;

class MirrorInvariant : public ::testing::TestWithParam<MirrorParam>
{
};

TEST_P(MirrorInvariant, BaseContentMirrorsUncompressedCache)
{
    const auto [baseRepl, victimRepl, patternKind] = GetParam();
    const BdiCompressor bdi;
    BaseVictimLlc bv(kSize, kWays, baseRepl, victimRepl, bdi);
    UncompressedLlc shadow(kSize, kWays, baseRepl);
    const DataPattern pattern(patternKind, 123);
    Rng rng(99);

    Line line{};
    std::uint64_t shadowHits = 0, bvHits = 0;
    for (int step = 0; step < 30000; ++step) {
        // Small footprint so sets see heavy replacement churn.
        const Addr blk = rng.range(3000) * kLineBytes;
        pattern.fillLine(blk, line.data());

        AccessType type = AccessType::Read;
        const double u = rng.uniform();
        if (u < 0.10 && bv.probeBase(blk) && shadow.probe(blk))
            type = AccessType::Writeback;
        else if (u < 0.15)
            type = AccessType::Prefetch;

        const LlcResult rs = shadow.access(blk, type, line.data());
        const LlcResult rb = bv.access(blk, type, line.data());

        // Hit superset: every uncompressed hit is a Base-Victim hit.
        if (rs.hit) {
            ASSERT_TRUE(rb.hit) << "step " << step;
        }
        shadowHits += rs.hit;
        bvHits += rb.hit;

        // Structural invariants hold continuously.
        if (step % 1000 == 0) {
            ASSERT_TRUE(bv.checkInvariants()) << "step " << step;
        }

        // Base content mirrors the uncompressed cache, set by set.
        if (step % 2500 == 0) {
            for (const SetIdx set : indexRange<SetIdx>(bv.numSets())) {
                ASSERT_EQ(bv.baseSetContents(set),
                          shadow.baseSetContents(set))
                    << "set " << set.get() << " step " << step;
            }
        }
    }

    // Full mirror check at the end.
    for (const SetIdx set : indexRange<SetIdx>(bv.numSets()))
        ASSERT_EQ(bv.baseSetContents(set), shadow.baseSetContents(set));
    EXPECT_GE(bvHits, shadowHits);
    EXPECT_TRUE(bv.checkInvariants());
}

TEST_P(MirrorInvariant, DramReadsNeverExceedBaseline)
{
    const auto [baseRepl, victimRepl, patternKind] = GetParam();
    const BdiCompressor bdi;
    BaseVictimLlc bv(kSize, kWays, baseRepl, victimRepl, bdi);
    UncompressedLlc shadow(kSize, kWays, baseRepl);
    const DataPattern pattern(patternKind, 321);
    Rng rng(7);

    Line line{};
    for (int step = 0; step < 20000; ++step) {
        const Addr blk = rng.range(2000) * kLineBytes;
        pattern.fillLine(blk, line.data());
        shadow.access(blk, AccessType::Read, line.data());
        bv.access(blk, AccessType::Read, line.data());
    }
    // Misses (== memory reads) can only shrink with the victim cache.
    EXPECT_LE(bv.stats().get("demand_misses"),
              shadow.stats().get("demand_misses"));
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigurations, MirrorInvariant,
    ::testing::Combine(
        ::testing::Values(ReplacementKind::Nru, ReplacementKind::Lru,
                          ReplacementKind::Srrip,
                          ReplacementKind::Drrip,
                          ReplacementKind::Random,
                          ReplacementKind::Char),
        ::testing::Values(VictimReplKind::Random, VictimReplKind::Ecm,
                          VictimReplKind::Lru, VictimReplKind::SizeMix,
                          VictimReplKind::Camp),
        ::testing::Values(DataPatternKind::MixedGood,
                          DataPatternKind::MixedPoor)),
    [](const ::testing::TestParamInfo<MirrorParam> &info) {
        return replacementName(std::get<0>(info.param)) + "_" +
               victimReplName(std::get<1>(info.param)) + "_" +
               DataPattern::kindName(std::get<2>(info.param)).substr(6);
    });

} // namespace
} // namespace bvc
