/**
 * @file
 * The fill/evict skeleton under every LLC model. It owns what the five
 * models share: set indexing, one TagArray with the replacement policy
 * over it, the counters every model reports, hit/miss counting with
 * the inclusion check, the drop step (memory writeback plus
 * back-invalidation), the uncompressed fill rule, the snoop port, and
 * the per-set structural check the shadow checker calls. A model adds
 * only its placement and eviction decisions:
 *
 *   UncompressedLlc  nothing: the plain cache is the skeleton's rules;
 *   BaseVictimLlc    victim insert and promotion over a second
 *                    (Victim Cache) TagArray; the skeleton's array is
 *                    its Baseline Cache;
 *   TwoTagLlc        partner fit and chooseVictimSlot over 2x tags;
 *   VscLlc, DccLlc   a per-set segment pool, filled by evicting the
 *                    oldest valid way until the line fits.
 *
 * The helpers a model's access() calls are not virtual, so using them
 * adds no virtual call to the access path.
 */

#ifndef BVC_CORE_SET_ASSOC_LLC_HH_
#define BVC_CORE_SET_ASSOC_LLC_HH_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_line.hh"
#include "cache/tag_array.hh"
#include "core/llc_interface.hh"
#include "replacement/factory.hh"

namespace bvc
{

/** Set-indexed LLC over one TagArray; base of every LLC model. */
class SetAssocLlc : public Llc
{
  public:
    [[nodiscard]] bool probe(Addr blk) const override
    {
        return tags_.find(setIndex(blk), blk).has_value();
    }
    /** Every line of the skeleton's array is baseline content. */
    [[nodiscard]] bool probeBase(Addr blk) const override
    {
        return tags_.find(setIndex(blk), blk).has_value();
    }
    void downgradeHint(Addr blk) override;
    /**
     * Snoop port: drop `blk` from the skeleton's array (writeback if
     * dirty, back-invalidation), as the uncompressed cache does.
     */
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override
    {
        return tags_.validCount();
    }

    [[nodiscard]] std::size_t numSets() const { return sets_; }
    /** Tag slots per set of the skeleton's array. */
    [[nodiscard]] std::size_t numWays() const { return tags_.ways(); }
    [[nodiscard]] SetIdx setIndex(Addr blk) const
    {
        return SetIdx{(blk >> setShift_) & (sets_ - 1)};
    }
    /** False only for the non-inclusive Base-Victim variant. */
    [[nodiscard]] bool inclusive() const { return inclusive_; }

    /**
     * True if the skeleton's array and policy must equal an
     * uncompressed cache's way by way after every access: the
     * uncompressed cache itself and the inclusive Base-Victim Baseline
     * Cache (Section IV.A). The shadow checker asserts it through
     * baseLineAt() and baseReplStateSnapshot().
     */
    [[nodiscard]] virtual bool mirrorsBaseline() const { return false; }

    /** Line at (set, way), dirty state included (mirror check). */
    [[nodiscard]] CacheLine baseLineAt(SetIdx set, WayIdx way) const
    {
        return tags_.line(set, way);
    }
    /** Replacement-policy state words for `set` (mirror check). */
    [[nodiscard]] std::vector<std::uint64_t>
    baseReplStateSnapshot(SetIdx set) const
    {
        return repl_->stateSnapshot(set);
    }
    /** Sorted valid addresses of one set (mirror tests). */
    [[nodiscard]] std::vector<Addr> baseSetContents(SetIdx set) const;

    /**
     * Structural invariants of one set. The default checks the
     * skeleton's array: every line within 16 segments, no tag twice.
     * Empty string when they hold, otherwise the first violation.
     */
    [[nodiscard]] virtual std::string checkSetInvariants(SetIdx set) const;
    /** checkSetInvariants() holds for every set. */
    [[nodiscard]] bool checkInvariants() const;

  protected:
    /**
     * @param what      cache name for geometry panics
     * @param sizeBytes data-array capacity; sets = size / 64 / physWays
     * @param physWays  physical ways per set
     * @param tagWays   tag slots per set (2x physWays for two tags)
     * @param repl      policy over all tag slots
     * @param setShift  lowest set-index bit (DCC indexes super-blocks)
     * @param inclusive false: writeback misses are the model's to
     *                  handle (non-inclusive Base-Victim)
     * @param countsBackInvalidations false keeps `back_invalidations`
     *        unregistered: VSC reports back-invalidations but has never
     *        counted them, and the golden stats pin its counter set
     */
    SetAssocLlc(const char *what, std::size_t sizeBytes,
                std::size_t physWays, std::size_t tagWays,
                ReplacementKind repl, unsigned setShift = kLineShift,
                bool inclusive = true, bool countsBackInvalidations = true);

    /** Count one access of any type. */
    void countAccess(AccessType type)
    {
        ++common_.accesses;
        if (type == AccessType::Read)
            ++common_.demandAccesses;
    }

    /** Count a hit: writeback, demand (Read) or prefetch. */
    void countHit(AccessType type)
    {
        if (type == AccessType::Writeback)
            ++common_.writebackHits;
        else if (type == AccessType::Read)
            ++common_.demandHits;
        else
            ++common_.prefetchHits;
    }

    /**
     * Count a demand or prefetch miss. A writeback can only miss when
     * the L2 holds a line the LLC does not, which breaks inclusion:
     * panic. The non-inclusive Base-Victim variant takes its writeback
     * fills before calling this.
     */
    void countMiss(AccessType type)
    {
        if (type == AccessType::Writeback)
            failInclusion();
        if (type == AccessType::Read)
            ++common_.demandMisses;
        else
            ++common_.prefetchMisses;
    }

    /**
     * The uncompressed hit rule: count the hit, mark a writeback
     * dirty, promote a demand hit. Prefetch hits leave the policy
     * alone.
     */
    void hitWay(SetIdx set, WayIdx way, AccessType type)
    {
        countHit(type);
        if (type == AccessType::Writeback)
            tags_.setDirty(set, way, true);
        else if (type == AccessType::Read)
            repl_->onHit(set, way);
    }

    /** The uncompressed fill rule (TagArray::fillWay) of `set`. */
    [[nodiscard]] WayIdx fillWay(SetIdx set)
    {
        return tags_.fillWay(set, *repl_);
    }

    /** Install `line` at (set, way) and tell the policy: one fill. */
    void fillLine(SetIdx set, WayIdx way, const CacheLine &line)
    {
        tags_.install(set, way, line);
        repl_->onFill(set, way);
        ++common_.fills;
    }

    /** A dirty line leaves for memory. */
    void writeBack(Addr blk, LlcResult &result)
    {
        result.memWritebacks.push_back(blk);
        ++common_.memWritebacks;
    }

    /**
     * The drop step: a line leaves the baseline content, so it is
     * written back if dirty and upper-level copies are invalidated.
     */
    void drop(Addr blk, bool dirty, LlcResult &result)
    {
        if (dirty)
            writeBack(blk, result);
        result.backInvalidations.push_back(blk);
        ++common_.backInvalidations;
    }

    /** Drop the valid line at (set, way) and free its slot. */
    void dropWay(SetIdx set, WayIdx way, LlcResult &result)
    {
        panicIf(!tags_.valid(set, way), "LLC: dropping an invalid way");
        drop(tags_.tag(set, way), tags_.dirty(set, way), result);
        tags_.invalidate(set, way);
        repl_->onInvalidate(set, way);
    }

    /**
     * Snoop `blk` out of the skeleton's array: drop it and count one
     * coherence invalidation. @return false if it was not there
     */
    bool snoop(SetIdx set, Addr blk, LlcResult &result);

    /** Segments of one set's data array (the VSC/DCC pool). */
    [[nodiscard]] SegCount dataSegments() const
    {
        return SegCount{physWays_ * kSegmentsPerLine};
    }

    /**
     * The segment-pool models' (VSC, DCC) eviction loop: while
     * `over()` holds, pass the valid way the policy ranks oldest,
     * never `keep`, to `evict`.
     */
    template <typename Over, typename Evict>
    void
    evictOldestWhile(SetIdx set, std::optional<WayIdx> keep, Over over,
                     Evict evict)
    {
        while (over()) {
            std::optional<WayIdx> victim;
            for (const WayIdx w : repl_->rank(set)) {
                if (tags_.valid(set, w) && w != keep) {
                    victim = w;
                    break;
                }
            }
            panicIf(!victim, "LLC: nothing left to evict");
            evict(*victim);
        }
    }

    /** A pool using more than dataSegments(), or empty. */
    [[nodiscard]] std::string poolOverBudget(SegCount used) const;
    /** First valid line of `tags`' set over 16 segments, or empty. */
    [[nodiscard]] static std::string
    segmentBound(const TagArray &tags, SetIdx set, const char *what);
    /** First two valid slots of `tags`' set sharing a tag, or empty. */
    [[nodiscard]] static std::string
    duplicateTag(const TagArray &tags, SetIdx set, const char *where);

  private:
    /** Panics naming the model: a writeback missed an inclusive LLC. */
    [[noreturn]] void failInclusion() const;

    std::size_t sets_;
    std::size_t physWays_;
    unsigned setShift_;
    bool inclusive_;
    /** Where an unregistered back-invalidation count goes (VSC). */
    Counter uncountedBackInvalidations_;

  protected:
    /**
     * The counters every model registers, resolved once and named like
     * their stats. backInvalidations is the one the constructor may
     * leave unregistered.
     */
    struct CommonCounters
    {
        CommonCounters(StatGroup &stats, Counter &backInvals);

        Counter &accesses, &demandAccesses, &fills;
        Counter &writebackHits, &demandHits, &prefetchHits;
        Counter &demandMisses, &prefetchMisses;
        Counter &memWritebacks, &backInvalidations, &coherenceInvalidations;
    };

    TagArray tags_; //!< the model's (Baseline) tag array
    std::unique_ptr<ReplacementPolicy> repl_; //!< policy over tags_
    CommonCounters common_; //!< must follow stats_ initialization
};

} // namespace bvc

#endif // BVC_CORE_SET_ASSOC_LLC_HH_
