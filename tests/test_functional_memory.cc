/** @file Unit tests for the sparse functional memory. */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "memory/functional_memory.hh"
#include "util/rng.hh"

namespace bvc
{
namespace
{

/** Address-derived initial content, distinct for every line. */
void
patternFill(Addr blk, std::uint8_t *out)
{
    for (std::size_t i = 0; i < kLineBytes; ++i)
        out[i] = static_cast<std::uint8_t>((blk >> kLineShift) * 31 + i);
}

/**
 * A byte address in one of several sparse regions: low memory, a few
 * gigabytes up, and the 4TB slices above 2^42 that MultiCoreSystem
 * gives each core.
 */
Addr
sparseAddr(Rng &rng)
{
    static constexpr Addr kRegions[] = {
        0, Addr{3} << 30, Addr{1} << 42, Addr{2} << 42, Addr{17} << 42,
        Addr{64} << 42,
    };
    const Addr base = kRegions[rng.range(std::size(kRegions))];
    return base + rng.range(1u << 14) * kLineBytes + rng.range(kLineBytes);
}

TEST(FunctionalMemory, DefaultsToZeroMemory)
{
    FunctionalMemory mem;
    const std::uint8_t *line = mem.line(0x1000);
    for (std::size_t i = 0; i < kLineBytes; ++i)
        EXPECT_EQ(line[i], 0);
    EXPECT_EQ(mem.load64(0x1008), 0u);
}

TEST(FunctionalMemory, LazyInitializerFillsLines)
{
    FunctionalMemory mem([](Addr blk, std::uint8_t *out) {
        for (std::size_t i = 0; i < kLineBytes; ++i)
            out[i] = static_cast<std::uint8_t>(blk >> 6);
    });
    EXPECT_EQ(mem.line(4 * kLineBytes)[0], 4);
    EXPECT_EQ(mem.line(5 * kLineBytes)[63], 5);
}

TEST(FunctionalMemory, StoreThenLoadRoundTrips)
{
    FunctionalMemory mem;
    mem.store64(0x2010, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(mem.load64(0x2010), 0xdeadbeefcafef00dULL);
}

TEST(FunctionalMemory, StoreOnlyAffectsItsWord)
{
    FunctionalMemory mem([](Addr, std::uint8_t *out) {
        std::memset(out, 0x11, kLineBytes);
    });
    mem.store64(0x3008, 0);
    EXPECT_EQ(mem.load64(0x3000), 0x1111111111111111ULL);
    EXPECT_EQ(mem.load64(0x3008), 0u);
    EXPECT_EQ(mem.load64(0x3010), 0x1111111111111111ULL);
}

TEST(FunctionalMemory, UnalignedAddressesSnapToWord)
{
    FunctionalMemory mem;
    mem.store64(0x4003, 42); // snaps to 0x4000
    EXPECT_EQ(mem.load64(0x4000), 42u);
    EXPECT_EQ(mem.load64(0x4005), 42u);
}

TEST(FunctionalMemory, StorePersistsOverInitializer)
{
    bool initialized = false;
    FunctionalMemory mem([&](Addr, std::uint8_t *out) {
        initialized = true;
        std::memset(out, 0xFF, kLineBytes);
    });
    mem.store64(0x5000, 7);
    EXPECT_TRUE(initialized); // store materialized the line first
    EXPECT_EQ(mem.load64(0x5000), 7u);
    // The rest of the line keeps its initialized content.
    EXPECT_EQ(mem.load64(0x5008), ~0ULL);
}

TEST(FunctionalMemory, TouchedLinesCountsUniqueBlocks)
{
    FunctionalMemory mem;
    mem.line(0);
    mem.line(8);      // same block
    mem.line(kLineBytes);
    mem.store64(2 * kLineBytes, 1);
    EXPECT_EQ(mem.touchedLines(), 3u);
}

TEST(FunctionalMemoryProperty, MatchesAMapReference)
{
    using LineBytes = std::array<std::uint8_t, kLineBytes>;
    FunctionalMemory mem(patternFill);
    std::unordered_map<Addr, LineBytes> ref;
    const auto refWord = [&](Addr addr) {
        auto [it, inserted] = ref.try_emplace(blockAddr(addr));
        if (inserted)
            patternFill(blockAddr(addr), it->second.data());
        return it->second.data() + (blockOffset(addr) & ~7u);
    };

    Rng rng(7);
    for (int step = 0; step < 150000; ++step) {
        const Addr addr = sparseAddr(rng);
        switch (rng.range(3)) {
          case 0: {
            const std::uint8_t *got = mem.line(addr);
            const std::uint8_t *want = refWord(blockAddr(addr));
            ASSERT_EQ(std::memcmp(got, want, kLineBytes), 0)
                << "line " << addr << " at step " << step;
            break;
          }
          case 1: {
            const std::uint64_t value = rng.next();
            mem.store64(addr, value);
            std::memcpy(refWord(addr), &value, 8);
            break;
          }
          default: {
            std::uint64_t want = 0;
            std::memcpy(&want, refWord(addr), 8);
            ASSERT_EQ(mem.load64(addr), want)
                << "load " << addr << " at step " << step;
            break;
          }
        }
        ASSERT_EQ(mem.touchedLines(), ref.size()) << "at step " << step;
    }

    for (const auto &[blk, bytes] : ref)
        ASSERT_EQ(std::memcmp(mem.line(blk), bytes.data(), kLineBytes), 0)
            << "line " << blk;
    EXPECT_EQ(mem.touchedLines(), ref.size());
}

TEST(FunctionalMemoryProperty, LinePointersSurviveLaterMaterializations)
{
    FunctionalMemory mem(patternFill);
    Rng rng(11);
    std::vector<std::pair<Addr, const std::uint8_t *>> early;
    for (int i = 0; i < 256; ++i) {
        const Addr blk = blockAddr(sparseAddr(rng));
        early.emplace_back(blk, mem.line(blk));
    }
    mem.store64(early.front().first + 8, 0x5eed);

    // 100k+ new lines elsewhere: many arena chunks, several index
    // rebuilds.
    const std::size_t before = mem.touchedLines();
    for (Addr blk = Addr{5} << 42; mem.touchedLines() < before + 100000;
         blk += kLineBytes)
        mem.line(blk);

    for (const auto &[blk, ptr] : early)
        ASSERT_EQ(mem.line(blk), ptr) << "line " << blk << " moved";
    EXPECT_EQ(mem.load64(early.front().first + 8), 0x5eedu);
    EXPECT_EQ(mem.touchedLines(), before + 100000);
}

TEST(FunctionalMemory, MoveAssignmentKeepsContents)
{
    // The System pattern: a default-built member, assigned a memory
    // with the trace's initializer.
    FunctionalMemory mem;
    mem = FunctionalMemory(patternFill);
    std::uint8_t want[kLineBytes];
    patternFill(0x2000, want);
    EXPECT_EQ(std::memcmp(mem.line(0x2000), want, kLineBytes), 0);

    // A populated memory moved over a populated one keeps its lines,
    // their addresses and its initializer.
    FunctionalMemory source(patternFill);
    source.store64(Addr{9} << 42, 99);
    const std::uint8_t *kept = source.line(0x40);
    for (Addr blk = 0x100000; source.touchedLines() < 5000;
         blk += kLineBytes)
        source.line(blk);
    mem = std::move(source);
    EXPECT_EQ(mem.touchedLines(), 5000u);
    EXPECT_EQ(mem.load64(Addr{9} << 42), 99u);
    EXPECT_EQ(mem.line(0x40), kept);
    patternFill(Addr{7} << 42, want);
    EXPECT_EQ(std::memcmp(mem.line(Addr{7} << 42), want, kLineBytes), 0);
    EXPECT_EQ(mem.touchedLines(), 5001u);
}

} // namespace
} // namespace bvc
