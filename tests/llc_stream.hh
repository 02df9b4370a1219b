/**
 * @file
 * The mixed direct-LLC stream shared by the golden snapshot and the
 * cross-architecture accounting properties. It drives an Llc with no
 * core or hierarchy in front: fixed-seed reads and prefetches,
 * writebacks to probeBase()-resident blocks, and about 3% snoop
 * invalidations. Writeback data comes from a second, less compressible
 * pattern half of the time, so lines grow and shrink on writes. With
 * `anyWriteback` set (the non-inclusive Base-Victim variant),
 * writebacks also go to absent and Victim-resident blocks.
 */

#ifndef BVC_TESTS_LLC_STREAM_HH_
#define BVC_TESTS_LLC_STREAM_HH_

#include <array>
#include <cstdint>

#include "core/llc_interface.hh"
#include "trace/data_patterns.hh"
#include "util/rng.hh"

namespace bvc::testhelpers
{

/**
 * Drive `ops` stream steps into `llc`, calling `onResult(result)` with
 * the LlcResult of every access and coherence invalidation.
 */
template <typename OnResult>
void
driveMixedStream(Llc &llc, std::uint64_t seed, unsigned ops,
                 bool anyWriteback, OnResult onResult)
{
    const DataPattern fillData(DataPatternKind::MixedGood, seed);
    const DataPattern writeData(DataPatternKind::MixedPoor, seed + 1);
    Rng rng(seed * 7919 + 1);
    std::array<std::uint8_t, kLineBytes> line{};
    for (unsigned i = 0; i < ops; ++i) {
        // Half the stream reuses a hot region; the rest churns a
        // footprint several times the test caches' capacity.
        const Addr blk =
            (rng.chance(0.5) ? rng.range(256) : rng.range(2048)) *
            kLineBytes;
        const double r = rng.uniform();
        if (r < 0.03) {
            onResult(llc.coherenceInvalidate(blk));
            continue;
        }
        AccessType type = AccessType::Read;
        if (r < 0.25) {
            if (anyWriteback || llc.probeBase(blk))
                type = AccessType::Writeback;
        } else if (r < 0.35) {
            type = AccessType::Prefetch;
        }
        const bool grown =
            type == AccessType::Writeback && rng.chance(0.5);
        (grown ? writeData : fillData).fillLine(blk, line.data());
        onResult(llc.access(blk, type, line.data()));
    }
}

} // namespace bvc::testhelpers

#endif // BVC_TESTS_LLC_STREAM_HH_
