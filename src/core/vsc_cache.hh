/**
 * @file
 * Functional model of the Decoupled Variable-Segment Cache (VSC-2X)
 * [Alameldeen & Wood, ISCA 2004], used only for the effective-capacity
 * comparison in Section V: "when simulated on functional cache models,
 * these policies come close to an 80% increase in cache capacity."
 *
 * The model decouples tags from data: each set has 2x tags and a pool of
 * 16 x 16 data segments; compressed lines occupy their exact segment
 * count and the set is assumed perfectly compactable (free
 * defragmentation). On a fill, lines are evicted in LRU order until the
 * incoming line fits — potentially several per fill, which is exactly
 * the replacement-complexity drawback the paper describes. No timing is
 * modelled; the paper itself declines to compare IPC against VSC because
 * of its data-array overheads.
 */

#ifndef BVC_CORE_VSC_CACHE_HH_
#define BVC_CORE_VSC_CACHE_HH_

#include "core/set_assoc_llc.hh"

namespace bvc
{

/** Functional VSC-2X capacity model. */
class VscLlc : public SetAssocLlc
{
  public:
    /**
     * @param sizeBytes data capacity (same array as the baseline)
     * @param physWays  physical ways per set; tags are doubled
     * @param comp      compression algorithm (not owned)
     */
    VscLlc(std::size_t sizeBytes, std::size_t physWays,
           const Compressor &comp);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    /** A snoop drop counts as an eviction here, unlike the baseline. */
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::string name() const override { return "VSC-2X"; }

    /** Lines evicted by the most recent fill (replacement complexity). */
    [[nodiscard]] unsigned lastFillEvictions() const
    {
        return lastFillEvictions_;
    }

    /** Total segments used in a set (must be <= ways*16). */
    [[nodiscard]] SegCount usedSegments(SetIdx set) const;

    /**
     * Structural invariants of one set: segment pool within the
     * physWays*16 budget, per-line segments <= 16, no duplicate tags.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const override;

  private:
    /** Evict one slot: an eviction plus the skeleton's drop step. */
    void evictSlot(SetIdx set, WayIdx victim, LlcResult &result);

    /** VSC counters beyond the skeleton's, resolved once. */
    struct HotCounters
    {
        explicit HotCounters(StatGroup &stats);

        Counter &evictions, &recompactions;
        Counter &fillEvictions, &multiEvictFills;
    };

    const Compressor &comp_;
    unsigned lastFillEvictions_ = 0;
    HotCounters ctr_;
};

} // namespace bvc

#endif // BVC_CORE_VSC_CACHE_HH_
