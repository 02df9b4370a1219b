/**
 * @file
 * Tests for the lockstep shadow checker (src/check/, docs/invariants.md):
 * positive lockstep runs over random streams, transparency of the
 * wrapper, and death tests proving each divergence class is caught.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "check/shadow_checker.hh"
#include "compress/factory.hh"
#include "core/base_victim_cache.hh"
#include "core/uncompressed_llc.hh"
#include "sim/system.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

constexpr std::size_t kWays = 8;
constexpr std::size_t kSets = 16;
constexpr std::size_t kBytes = kSets * kWays * kLineBytes;

/** Inclusive Base-Victim LLC under the checker; keeps a raw BV view. */
struct CheckedBv
{
    std::unique_ptr<Compressor> comp = makeCompressor("bdi");
    BaseVictimLlc *bv = nullptr;
    std::unique_ptr<ShadowChecker> checker;

    explicit CheckedBv(ReplacementKind repl = ReplacementKind::Nru)
    {
        auto inner = std::make_unique<BaseVictimLlc>(
            kBytes, kWays, repl, VictimReplKind::Ecm, *comp);
        bv = inner.get();
        checker = std::make_unique<ShadowChecker>(std::move(inner),
                                                  kBytes, kWays, repl);
    }
};

/** Drive `n` pattern-filled accesses through any Llc. */
void
drive(Llc &llc, std::uint64_t n, std::uint64_t seed,
      DataPatternKind kind = DataPatternKind::MixedGood)
{
    const DataPattern pattern(kind, seed);
    Rng rng(seed + 1);
    std::uint8_t line[kLineBytes];
    const std::uint64_t footprint = kSets * kWays * 3;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr blk = rng.range(footprint) * kLineBytes;
        pattern.fillLine(blk, line);
        AccessType type = AccessType::Read;
        const double r = rng.uniform();
        if (r < 0.05)
            type = AccessType::Prefetch;
        else if (r < 0.25 && llc.probeBase(blk))
            type = AccessType::Writeback;
        llc.access(blk, type, line);
    }
}

/** A block address landing in set 0 of the small test geometry. */
Addr
set0Blk(std::uint64_t i)
{
    return static_cast<Addr>(i) * kSets * kLineBytes;
}

TEST(ShadowChecker, MirrorHoldsOverRandomStream)
{
    CheckedBv c;
    drive(*c.checker, 5000, 42);
    EXPECT_TRUE(c.checker->mirrorChecked());
    EXPECT_TRUE(c.checker->hasShadow());
    EXPECT_EQ(c.checker->checkedAccesses(), 5000u);
    // Compressible mixed data must produce at least some opportunistic
    // victim hits over 5000 accesses of a 3x-capacity footprint.
    EXPECT_GT(c.checker->extraDemandHits(), 0u);
}

TEST(ShadowChecker, MirrorHoldsForUncompressedSelfCheck)
{
    auto inner = std::make_unique<UncompressedLlc>(kBytes, kWays,
                                                   ReplacementKind::Lru);
    ShadowChecker checker(std::move(inner), kBytes, kWays,
                          ReplacementKind::Lru);
    drive(checker, 3000, 7);
    EXPECT_TRUE(checker.mirrorChecked());
    // The baseline can never out-hit its own mirror.
    EXPECT_EQ(checker.extraDemandHits(), 0u);
}

TEST(ShadowChecker, WrapperIsTransparent)
{
    CheckedBv c;
    EXPECT_EQ(c.checker->name(), c.bv->name());
    // stats() must forward to the wrapped model, so snapshot readers
    // see numbers identical to an unchecked run.
    EXPECT_EQ(&c.checker->stats(), &c.bv->stats());
    drive(*c.checker, 200, 3);
    EXPECT_EQ(c.checker->stats().get("accesses"),
              c.bv->stats().get("accesses"));
}

TEST(ShadowChecker, FailHandlerReceivesDivergence)
{
    CheckedBv c;
    std::string captured;
    c.checker->setFailHandler(
        [&](const std::string &msg) { captured = msg; });
    // Desynchronize the shadow directly, then touch the same set.
    std::uint8_t line[kLineBytes] = {};
    c.checker->shadow().access(set0Blk(1), AccessType::Read, line);
    c.checker->access(set0Blk(2), AccessType::Read, line);
    EXPECT_NE(captured.find("shadow check failed"), std::string::npos);
}

TEST(ShadowCheckerDeathTest, CatchesForcedBaseMismatch)
{
    EXPECT_DEATH(
        {
            CheckedBv c;
            std::uint8_t line[kLineBytes] = {};
            // An access the inner cache never saw desynchronizes the
            // shadow; the next checked access to that set must die.
            c.checker->shadow().access(set0Blk(1), AccessType::Read,
                                       line);
            c.checker->access(set0Blk(2), AccessType::Read, line);
        },
        "shadow check failed");
}

TEST(ShadowCheckerDeathTest, CatchesDirtyInclusiveVictim)
{
    EXPECT_DEATH(
        {
            CheckedBv c;
            // Zero lines compress maximally, guaranteeing victims park.
            drive(*c.checker, 2000, 11, DataPatternKind::Zeros);
            bool corrupted = false;
            for (std::size_t si = 0; si < kSets && !corrupted; ++si) {
                const SetIdx set{si};
                for (const WayIdx w : indexRange<WayIdx>(kWays)) {
                    if (!c.bv->victimLineAt(set, w).valid)
                        continue;
                    CacheLine corrupt = c.bv->victimLineAt(set, w);
                    corrupt.dirty = true;
                    c.bv->debugSetVictimLine(set, w, corrupt);
                    // Re-touch a base-resident line of the same set: a
                    // pure hit leaves the corrupted victim in place for
                    // the structural check (reading the victim itself
                    // would promote it to the base section first).
                    for (const WayIdx bw : indexRange<WayIdx>(kWays)) {
                        if (!c.bv->baseLineAt(set, bw).valid)
                            continue;
                        const Addr blk = c.bv->baseLineAt(set, bw).tag;
                        std::uint8_t line[kLineBytes] = {};
                        c.checker->access(blk, AccessType::Read, line);
                        break;
                    }
                    corrupted = true;
                    break;
                }
            }
            // No victim line after 2000 zero-line accesses would be a
            // bug of its own; exit(0) fails the death expectation.
            if (!corrupted)
                std::exit(0);
        },
        "dirty victim line in the inclusive Victim Cache");
}

TEST(ShadowCheckerDeathTest, CatchesDuplicateTag)
{
    EXPECT_DEATH(
        {
            CheckedBv c;
            std::uint8_t line[kLineBytes] = {};
            // Fill two base lines of set 0, then clone one base tag
            // into a victim slot: a line may never live in both
            // sections (Section IV.A tag-lookup uniqueness).
            c.checker->access(set0Blk(1), AccessType::Read, line);
            c.checker->access(set0Blk(2), AccessType::Read, line);
            CacheLine slot;
            slot.valid = true;
            slot.dirty = false;
            slot.tag = set0Blk(1);
            slot.segments = kZeroLineSegments;
            c.bv->debugSetVictimLine(SetIdx{0}, WayIdx{0}, slot);
            c.checker->access(set0Blk(2), AccessType::Read, line);
        },
        "tag in both B and V sections");
}

/** A model the checker has no special case for, with a planted fault. */
class PlantedViolationLlc : public UncompressedLlc
{
  public:
    using UncompressedLlc::UncompressedLlc;

    [[nodiscard]] std::string checkSetInvariants(SetIdx) const override
    {
        return "planted violation";
    }
};

TEST(ShadowCheckerDeathTest, ReachesAnyModelsStructuralCheck)
{
    // The checker runs every SetAssocLlc model's own per-set check
    // after each access, with no per-model wiring.
    EXPECT_DEATH(
        {
            ShadowChecker checker(std::make_unique<PlantedViolationLlc>(
                                      kBytes, kWays, ReplacementKind::Lru),
                                  kBytes, kWays, ReplacementKind::Lru);
            std::uint8_t line[kLineBytes] = {};
            checker.access(set0Blk(1), AccessType::Read, line);
        },
        "structural invariant violated: planted violation");
}

TEST(ShadowCheckerDeathTest, CatchesDivergenceOnBatchedDecodePath)
{
    EXPECT_DEATH(
        {
            // The checked access stream must flow through System::run's
            // block-buffered decode boundary, proving the lockstep
            // checker still guards the batched path.
            setenv("BVC_CHECK", "1", 1);
            SystemConfig cfg = SystemConfig::benchDefaults();
            cfg.arch = LlcArch::BaseVictim;
            TraceParams params;
            params.name = "batched-check";
            params.seed = 5;
            System system(cfg, params);
            system.run(0, 2000);
            // Desynchronize every shadow set behind the checker's back;
            // the next checked access (wherever it lands) must die.
            auto &checker =
                dynamic_cast<ShadowChecker &>(system.llc());
            std::uint8_t line[kLineBytes] = {};
            for (std::size_t s = 0; s < checker.shadow().numSets(); ++s)
                checker.shadow().access(
                    static_cast<Addr>(s) * kLineBytes,
                    AccessType::Read, line);
            system.run(0, 2000);
        },
        "shadow check failed");
}

} // namespace
} // namespace bvc
