/**
 * @file
 * Structure-of-arrays tag/metadata storage shared by every cache level
 * and LLC organization. The probe hot path scans a contiguous array of
 * tag words per set — no striding through CacheLine objects — and the
 * valid/dirty/segment metadata lives in a parallel packed byte array
 * that only the (much rarer) hit/fill bookkeeping touches.
 *
 * Invalid slots hold the sentinel kInvalidTag, which no real block
 * address can equal (block addresses are 64B-aligned), so the probe
 * loop never reads the valid bit at all: it is a pure tag compare over
 * one cache-resident row, written branchlessly so the compiler can
 * vectorize it.
 *
 * CacheLine remains the interchange type at the API boundary: callers
 * read whole lines by value (line()) and install whole lines
 * (install()); nobody holds a pointer into the array, which is what
 * made the old wayOf() pointer-arithmetic hack necessary.
 */

#ifndef BVC_CACHE_TAG_ARRAY_HH_
#define BVC_CACHE_TAG_ARRAY_HH_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_line.hh"
#include "replacement/replacement.hh"
#include "util/logging.hh"
#include "util/strong_types.hh"
#include "util/types.hh"

namespace bvc
{

/**
 * Validate a cache geometry and return its set count,
 * sizeBytes / kLineBytes / ways. Checks the associativity BEFORE
 * dividing by it, so constructors can call this in the member
 * initializer list without the construct-then-check divide-by-zero
 * hazard (`ways == 0` used to fault before any panicIf could fire).
 *
 * @param what stats-style prefix naming the cache in panic messages
 */
[[nodiscard]] inline std::size_t
cacheSetCount(std::size_t sizeBytes, std::size_t ways, const char *what)
{
    if (ways == 0)
        panic(std::string(what) + " associativity must be nonzero");
    const std::size_t sets = sizeBytes / kLineBytes / ways;
    if (sets == 0 || (sets & (sets - 1)) != 0)
        panic(std::string(what) +
              " set count must be a nonzero power of two");
    return sets;
}

/**
 * Packed per-line metadata byte: segments in bits 0-4 (0..16), valid
 * in bit 5, dirty in bit 6. Shared with DccLlc, which keeps its
 * super-block tags in a TagArray and packs the metadata of the four
 * sub-blocks under each tag this way in a parallel array.
 */
namespace linemeta
{

constexpr std::uint8_t kSegmentMask = 0x1f;
constexpr std::uint8_t kValidBit = 0x20;
constexpr std::uint8_t kDirtyBit = 0x40;

[[nodiscard]] constexpr std::uint8_t
pack(bool valid, bool dirty, SegCount segments)
{
    return static_cast<std::uint8_t>(
        (segments.get() & kSegmentMask) | (valid ? kValidBit : 0) |
        (dirty ? kDirtyBit : 0));
}

[[nodiscard]] constexpr bool
valid(std::uint8_t meta)
{
    return (meta & kValidBit) != 0;
}

[[nodiscard]] constexpr bool
dirty(std::uint8_t meta)
{
    return (meta & kDirtyBit) != 0;
}

[[nodiscard]] constexpr SegCount
segments(std::uint8_t meta)
{
    return SegCount{meta & kSegmentMask};
}

} // namespace linemeta

/** Structure-of-arrays tag store: sets x ways, row-major per set. */
class TagArray
{
  public:
    /**
     * Tag held by invalid slots. Block addresses are line-aligned
     * (low 6 bits zero), so no probe tag ever equals it and the find
     * loop needs no valid check.
     */
    static constexpr Addr kInvalidTag = ~Addr{0};

    TagArray(std::size_t sets, std::size_t ways)
        : sets_(sets),
          ways_(ways),
          tags_(sets * ways, kInvalidTag),
          meta_(sets * ways, kInvalidMeta)
    {
    }

    [[nodiscard]] std::size_t sets() const { return sets_; }
    [[nodiscard]] std::size_t ways() const { return ways_; }

    /**
     * Probe one set for `tag`. Branchless last-match scan over the
     * contiguous tag row; models forbid duplicate valid tags, so the
     * last match is the only match.
     */
    [[nodiscard]] std::optional<WayIdx> find(SetIdx set, Addr tag) const
    {
        const Addr *row = tags_.data() + set.get() * ways_;
        std::size_t hit = ways_;
        for (std::size_t w = 0; w < ways_; ++w)
            hit = row[w] == tag ? w : hit;
        if (hit == ways_)
            return std::nullopt;
        return WayIdx{hit};
    }

    /** Lowest-index invalid slot of a set, if any. */
    [[nodiscard]] std::optional<WayIdx> firstInvalid(SetIdx set) const
    {
        const Addr *row = tags_.data() + set.get() * ways_;
        for (std::size_t w = 0; w < ways_; ++w)
            if (row[w] == kInvalidTag)
                return WayIdx{w};
        return std::nullopt;
    }

    /**
     * The fill rule of an uncompressed set-associative cache: the
     * lowest invalid way, else the policy's victim. Cache,
     * UncompressedLlc and the Base-Victim Baseline Cache all fill
     * through this one function, which is what keeps the Baseline
     * Cache a way-exact mirror of the uncompressed cache (Section
     * IV.A).
     */
    [[nodiscard]] WayIdx fillWay(SetIdx set, ReplacementPolicy &repl) const
    {
        if (const std::optional<WayIdx> w = firstInvalid(set))
            return *w;
        return repl.victim(set);
    }

    [[nodiscard]] bool valid(SetIdx set, WayIdx way) const
    {
        return tags_[index(set, way)] != kInvalidTag;
    }

    /** Tag of a valid slot (the sentinel for invalid slots). */
    [[nodiscard]] Addr tag(SetIdx set, WayIdx way) const
    {
        return tags_[index(set, way)];
    }

    [[nodiscard]] bool dirty(SetIdx set, WayIdx way) const
    {
        return linemeta::dirty(meta_[index(set, way)]);
    }

    [[nodiscard]] SegCount segments(SetIdx set, WayIdx way) const
    {
        return linemeta::segments(meta_[index(set, way)]);
    }

    void setDirty(SetIdx set, WayIdx way, bool dirty)
    {
        std::uint8_t &m = meta_[index(set, way)];
        m = static_cast<std::uint8_t>(
            dirty ? (m | linemeta::kDirtyBit)
                  : (m & ~linemeta::kDirtyBit));
    }

    void setSegments(SetIdx set, WayIdx way, SegCount segments)
    {
        std::uint8_t &m = meta_[index(set, way)];
        m = static_cast<std::uint8_t>(
            (m & ~linemeta::kSegmentMask) |
            (segments.get() & linemeta::kSegmentMask));
    }

    /** Materialize a slot as the CacheLine interchange type. */
    [[nodiscard]] CacheLine line(SetIdx set, WayIdx way) const
    {
        const std::size_t i = index(set, way);
        const std::uint8_t m = meta_[i];
        CacheLine out;
        out.valid = linemeta::valid(m);
        out.dirty = linemeta::dirty(m);
        out.segments = linemeta::segments(m);
        out.tag = out.valid ? tags_[i] : 0;
        return out;
    }

    /** Overwrite a slot with a valid line. */
    void install(SetIdx set, WayIdx way, const CacheLine &line)
    {
        panicIf(!line.valid, "TagArray: installing an invalid line");
        panicIf(line.tag == kInvalidTag,
                "TagArray: line tag collides with the invalid sentinel");
        const std::size_t i = index(set, way);
        tags_[i] = line.tag;
        meta_[i] = linemeta::pack(true, line.dirty, line.segments);
    }

    void invalidate(SetIdx set, WayIdx way)
    {
        const std::size_t i = index(set, way);
        tags_[i] = kInvalidTag;
        meta_[i] = kInvalidMeta;
    }

    /** Number of valid slots across the whole array. */
    [[nodiscard]] std::size_t validCount() const
    {
        std::size_t count = 0;
        for (const Addr tag : tags_)
            count += tag != kInvalidTag ? 1 : 0;
        return count;
    }

  private:
    /** Invalid slots mirror a default/invalidated CacheLine. */
    static constexpr std::uint8_t kInvalidMeta =
        linemeta::pack(false, false, kFullLineSegments);

    [[nodiscard]] std::size_t index(SetIdx set, WayIdx way) const
    {
        return set.get() * ways_ + way.get();
    }

    std::size_t sets_;
    std::size_t ways_;
    std::vector<Addr> tags_;         //!< kInvalidTag in invalid slots
    std::vector<std::uint8_t> meta_; //!< packed valid/dirty/segments
};

} // namespace bvc

#endif // BVC_CACHE_TAG_ARRAY_HH_
