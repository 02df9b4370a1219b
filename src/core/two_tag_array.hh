/**
 * @file
 * Shared machinery for the simple two-tags-per-physical-way compressed
 * LLC of Section III (Figure 1): 2x logical tags over an unmodified data
 * array, with one replacement policy spanning all logical tag slots.
 * Subclasses differ only in victim selection on a fill: TwoTagNaiveLlc
 * victimizes partners (Figure 6), TwoTagModifiedLlc searches the policy's
 * candidate class for a size-compatible victim, ECM-style (Figure 7).
 */

#ifndef BVC_CORE_TWO_TAG_ARRAY_HH_
#define BVC_CORE_TWO_TAG_ARRAY_HH_

#include "core/set_assoc_llc.hh"

namespace bvc
{

/**
 * Base class for two-tag compressed LLCs. Logical slot numbering within
 * a set: slot = physicalWay * 2 + tagIndex; slots are the "ways" the
 * spanning replacement policy sees, so they use WayIdx. Two logical
 * lines sharing a physical way must satisfy
 * segments(a) + segments(b) <= 16. Every resident line is baseline
 * content (no baseline/victim split), so upper levels may hold it.
 */
class TwoTagLlc : public SetAssocLlc
{
  public:
    /**
     * @param sizeBytes *data array* capacity (same as the uncompressed
     *                  baseline it is compared against)
     * @param physWays  physical associativity (16 in the paper)
     * @param repl      replacement policy spanning the 2x logical slots
     * @param comp      compression algorithm (not owned)
     */
    TwoTagLlc(std::size_t sizeBytes, std::size_t physWays,
              ReplacementKind repl, const Compressor &comp);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    /** A snoop drop counts as an eviction here, unlike the baseline. */
    LlcResult coherenceInvalidate(Addr blk) override;

    /**
     * Structural invariants of one set: per-line segments <= 16,
     * partner pair-fit, no duplicate tags across the 2x logical slots.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const override;

  protected:
    /** Partner slot sharing the same physical way. */
    [[nodiscard]] static WayIdx partnerOf(WayIdx s)
    {
        return WayIdx{s.get() ^ 1};
    }

    /** True if a line of `segments` can live in slot `s` of `set`. */
    [[nodiscard]] bool fits(SetIdx set, WayIdx s,
                            SegCount segments) const;

    /**
     * Subclass hook: pick the victim slot for an incoming line of
     * `segments` segments. May return a slot whose partner does not fit
     * the incoming line; the caller then evicts the partner too.
     */
    [[nodiscard]] virtual WayIdx chooseVictimSlot(SetIdx set,
                                                  SegCount segments) = 0;

  private:
    /** Evict one slot: an eviction plus the skeleton's drop step. */
    void evictSlot(SetIdx set, WayIdx s, LlcResult &result);

    /** Two-tag counters beyond the skeleton's, resolved once. */
    struct HotCounters
    {
        explicit HotCounters(StatGroup &stats);

        Counter &compressions, &decompressions, &evictions;
        Counter &partnerEvictionsOnWrite, &partnerEvictionsOnFill;
    };

    const Compressor &comp_;
    HotCounters ctr_;
};

/** Section III option 1: partner line victimization (Figure 6). */
class TwoTagNaiveLlc : public TwoTagLlc
{
  public:
    using TwoTagLlc::TwoTagLlc;

    [[nodiscard]] std::string name() const override
    {
        return "TwoTagNaive";
    }

  protected:
    [[nodiscard]] WayIdx chooseVictimSlot(SetIdx set,
                                          SegCount segments) override;
};

/**
 * Section VI.A's modified policy: among the replacement policy's victim
 * candidates that do not require partner eviction, evict the one with the
 * largest compressed size (ECM-inspired [4]); fall back to partner
 * victimization when no candidate fits (Figure 7).
 */
class TwoTagModifiedLlc : public TwoTagLlc
{
  public:
    using TwoTagLlc::TwoTagLlc;

    [[nodiscard]] std::string name() const override
    {
        return "TwoTagModified";
    }

  protected:
    [[nodiscard]] WayIdx chooseVictimSlot(SetIdx set,
                                          SegCount segments) override;
};

} // namespace bvc

#endif // BVC_CORE_TWO_TAG_ARRAY_HH_
