/**
 * @file
 * Functional capacity model of the Decoupled Compressed Cache (DCC)
 * [Sardashti & Wood, MICRO 2013], the second prior architecture the
 * paper positions against (Section II). DCC tracks *super-blocks* of
 * four aligned lines under one tag and allocates compressed sub-blocks
 * from a decoupled segment pool, eliminating VSC's re-compaction at
 * the price of indirection. Like the VSC model, this is functional
 * only — the paper argues (Section V) that DCC's data-array changes
 * make an IPC comparison against the unmodified-array two-tag designs
 * unfair, so it reports capacity, not cycles.
 */

#ifndef BVC_CORE_DCC_CACHE_HH_
#define BVC_CORE_DCC_CACHE_HH_

#include "core/set_assoc_llc.hh"

namespace bvc
{

/**
 * Functional DCC capacity model with 4-line super-blocks. The
 * skeleton's array holds the super-block tags; a parallel array holds
 * each sub-block's presence, dirty bit and compressed size.
 */
class DccLlc : public SetAssocLlc
{
  public:
    /** Lines per super-block (DCC's default). */
    static constexpr unsigned kSubBlocks = 4;

    /**
     * @param sizeBytes data capacity (the unmodified baseline array)
     * @param physWays  physical ways; the set holds physWays
     *                  super-block tags over physWays*16 segments
     * @param comp      compression algorithm (not owned)
     */
    DccLlc(std::size_t sizeBytes, std::size_t physWays,
           const Compressor &comp);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    [[nodiscard]] bool probeBase(Addr blk) const override
    {
        return probe(blk);
    }
    /** The super-block LRU takes no hints. */
    void downgradeHint(Addr) override {}
    /**
     * Snoop invalidation at line granularity: clears only the one
     * sub-block's presence; the super-block tag is freed when its last
     * sub-block goes.
     */
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;
    [[nodiscard]] std::string name() const override { return "DCC"; }

    /** Segments used in one set (must stay within the pool). */
    [[nodiscard]] SegCount usedSegments(SetIdx set) const;

    /**
     * Structural invariants of one set: segment pool within the
     * physWays*16 budget, per-sub-block segments <= 16, no duplicate
     * super-block tags, presence bits only under valid tags.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const override;

  private:
    [[nodiscard]] std::size_t metaIndex(SetIdx set, WayIdx way,
                                        unsigned sub) const
    {
        return (set.get() * numWays() + way.get()) * kSubBlocks + sub;
    }

    [[nodiscard]] bool present(SetIdx set, WayIdx way,
                               unsigned sub) const
    {
        return linemeta::valid(subMeta_[metaIndex(set, way, sub)]);
    }

    [[nodiscard]] bool subDirty(SetIdx set, WayIdx way,
                                unsigned sub) const
    {
        return linemeta::dirty(subMeta_[metaIndex(set, way, sub)]);
    }

    [[nodiscard]] SegCount subSegments(SetIdx set, WayIdx way,
                                       unsigned sub) const
    {
        return linemeta::segments(subMeta_[metaIndex(set, way, sub)]);
    }

    void setSubMeta(SetIdx set, WayIdx way, unsigned sub,
                    bool isPresent, bool isDirty, SegCount segments)
    {
        subMeta_[metaIndex(set, way, sub)] =
            linemeta::pack(isPresent, isDirty, segments);
    }

    /** Free one super-block slot: tag, policy state, sub-block meta. */
    void clearSuperBlock(SetIdx set, WayIdx way);

    /** Install the super-block tag of `blk` in a free way of `set`. */
    WayIdx allocSuperBlock(SetIdx set, Addr blk);

    [[nodiscard]] static Addr superTag(Addr blk);
    [[nodiscard]] static unsigned subIndex(Addr blk);

    /** Drop one whole super-block (LRU), reporting its sub-blocks. */
    void evictSuperBlock(SetIdx set, WayIdx way, LlcResult &result);

    /** Free segments/tags until `segments` more fit; LRU order. */
    void makeRoom(SetIdx set, SegCount segments, bool needTag,
                  LlcResult &result);

    /** DCC counters beyond the skeleton's, resolved once. */
    struct HotCounters
    {
        explicit HotCounters(StatGroup &stats);

        Counter &evictions, &superblockEvictions, &superblockFills;
    };

    std::vector<std::uint8_t> subMeta_; // packed per-sub-block metadata
    const Compressor &comp_;
    HotCounters ctr_;
};

} // namespace bvc

#endif // BVC_CORE_DCC_CACHE_HH_
