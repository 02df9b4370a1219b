/**
 * @file
 * The Base-Victim opportunistic compressed cache — the paper's primary
 * contribution (Section IV). The LLC is logically split per set into a
 * Baseline (B) Cache, one tag per physical way that strictly runs the
 * baseline replacement policy and therefore always mirrors the content
 * of an uncompressed cache, and a Victim (V) Cache, a second tag per
 * physical way that opportunistically retains *clean* baseline-eviction
 * victims when their compressed size fits alongside the base line in the
 * same 64B physical way.
 *
 * Guarantees maintained by this implementation (all property-tested):
 *   - the B-cache content and replacement state equal those of an
 *     uncompressed cache with the same policy at every step, so the hit
 *     rate can never drop below the uncompressed cache's;
 *   - V-cache lines are always clean, so victim evictions are silent
 *     and each fill performs at most one memory writeback;
 *   - size(base) + size(victim) <= 16 segments in every physical way;
 *   - upper levels only cache B-content lines (inclusion): moving a
 *     line into the V cache back-invalidates L1/L2.
 */

#ifndef BVC_CORE_BASE_VICTIM_CACHE_HH_
#define BVC_CORE_BASE_VICTIM_CACHE_HH_

#include "core/set_assoc_llc.hh"
#include "core/victim_replacement.hh"

namespace bvc
{

/**
 * Base-Victim opportunistic compressed LLC. The skeleton's array and
 * policy are the Baseline Cache; this class adds the Victim Cache.
 */
class BaseVictimLlc : public SetAssocLlc
{
  public:
    /**
     * @param sizeBytes  data-array capacity, identical to the baseline
     * @param physWays   physical associativity (16-way in the paper)
     * @param baseRepl   Baseline-Cache replacement policy (NRU default)
     * @param victimRepl Victim-Cache policy (ECM-inspired default)
     * @param comp       compression algorithm (not owned)
     * @param inclusive  true (paper's evaluation): victim lines are
     *        kept clean via writeback + back-invalidation on insertion
     *        and victim evictions are silent. false (Section IV.B.3):
     *        victim lines may be dirty, write hits to the Victim Cache
     *        promote like read hits, and dirty victim evictions write
     *        back to memory.
     * @param segmentQuantumBytes compressed-size alignment: 4 (the
     *        paper's evaluation) or 8 (the paper's worked examples);
     *        coarser alignment needs fewer metadata bits but pairs
     *        fewer lines (Section IV.C ablation)
     */
    BaseVictimLlc(std::size_t sizeBytes, std::size_t physWays,
                  ReplacementKind baseRepl, VictimReplKind victimRepl,
                  const Compressor &comp, bool inclusive = true,
                  unsigned segmentQuantumBytes = kSegmentBytes);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    /**
     * Snoop invalidation. A base copy drops exactly as the uncompressed
     * cache would (writeback if dirty, back-invalidation, replacement
     * onInvalidate), so the mirror invariant is preserved. A victim
     * copy is not baseline content: it drops silently (clean when
     * inclusive) with no traffic — which is precisely why the
     * never-worse guarantee survives coherence invalidations
     * (docs/coherence.md).
     */
    LlcResult coherenceInvalidate(Addr blk) override;
    [[nodiscard]] std::size_t validLines() const override;
    [[nodiscard]] std::string name() const override
    {
        return "BaseVictim";
    }
    /** Only the inclusive Baseline Cache mirrors (Section IV.B.3). */
    [[nodiscard]] bool mirrorsBaseline() const override
    {
        return inclusive();
    }

    /** True if `blk` currently resides in the Victim Cache section. */
    [[nodiscard]] bool probeVictim(Addr blk) const;

    /**
     * Structural invariants of one set (Section IV.A): clean-only
     * victims when inclusive, pair-fit <= 16 segments per physical
     * way, no line in both sections, no tag twice in either.
     */
    [[nodiscard]] std::string checkSetInvariants(SetIdx set) const override;

    /** Victim-Cache line by value (structural checks, tests). */
    [[nodiscard]] CacheLine victimLineAt(SetIdx set, WayIdx way) const
    {
        return victim_.line(set, way);
    }

    /**
     * Force-write a Victim-Cache slot, for tests ONLY: lets the
     * checker's death tests install a corrupted state (dirty inclusive
     * victim, duplicated tag) that no legal access sequence can
     * produce. An invalid `line` clears the slot.
     */
    void debugSetVictimLine(SetIdx set, WayIdx way,
                            const CacheLine &line)
    {
        if (line.valid)
            victim_.install(set, way, line);
        else
            victim_.invalidate(set, way);
    }

  private:
    /** Why a victim line is silently dropped (per-reason counters). */
    enum class VictimEvictReason
    {
        Displaced,   //!< lost the slot to another inserted victim
        Partner,     //!< base partner grew on fill, pair no longer fits
        WriteGrowth, //!< base partner grew on a write hit
    };

    /**
     * Base-Victim's own counters, resolved once at construction so the
     * per-access paths never do string-keyed map lookups (the worst
     * offender was a per-eviction string concatenation for the
     * victim_silent_evictions_<reason> counters).
     */
    struct HotCounters
    {
        explicit HotCounters(StatGroup &stats);

        Counter &compressions, &decompressions, &baseHits;
        Counter &victimHits, &victimPrefetchHits, &victimWriteHits;
        Counter &promotions, &dataMovements, &writebackFills;
        Counter &baseEvictions, &victimInserts, &victimInsertFailures;
        Counter &dirtyVictimEvictions, &victimSilentEvictions;
        Counter &victimSilentDisplaced, &victimSilentPartner;
        Counter &victimSilentWriteGrowth, &victimCoherenceInvalidations;

        Counter &silentEvictions(VictimEvictReason reason);
    };

    /**
     * Install `incoming` into base way `way`, handling the eviction of
     * the previous base occupant (writeback + back-invalidation + an
     * opportunistic move into the Victim Cache) and the displacement of
     * a victim partner that no longer fits.
     *
     * On a promotion the victim way the incoming line just vacated is
     * deliberately *not* excluded from re-insertion: Section IV.B.2
     * places the displaced base line anywhere it fits, and the freshly
     * freed slot is often the best (displace-nothing) candidate — the
     * default ECM policy prefers it.
     */
    void installBase(SetIdx set, WayIdx way, const CacheLine &incoming,
                     LlcResult &result);

    /**
     * Opportunistically place a base-eviction into the Victim Cache.
     * @return true if the line was parked (not dropped)
     */
    bool tryInsertVictim(SetIdx set, const CacheLine &line,
                         LlcResult &result);

    /**
     * Drop the victim line at (set, way), if valid. Silent in the
     * inclusive configuration (victims are clean); in non-inclusive
     * mode a dirty victim writes back through `result`.
     */
    void silentEvictVictim(SetIdx set, WayIdx way,
                           VictimEvictReason reason, LlcResult &result);

    /** Compressed size of `data` aligned to the segment quantum. */
    [[nodiscard]] SegCount quantizedSegments(
        const std::uint8_t *data) const;

    TagArray victim_; // SoA Victim-Cache section
    std::unique_ptr<VictimReplacement> victimRepl_;
    /** tryInsertVictim()'s candidate list, reused across evictions. */
    std::vector<VictimCandidate> candidateScratch_;
    const Compressor &comp_;
    unsigned quantumSegments_; //!< segments per size-field step
    HotCounters ctr_;          //!< must follow stats_ initialization
};

} // namespace bvc

#endif // BVC_CORE_BASE_VICTIM_CACHE_HH_
