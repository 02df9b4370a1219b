/**
 * @file
 * Lockstep differential checker for every LLC organization. A
 * ShadowChecker wraps any Llc and drives a reference UncompressedLlc
 * (same geometry, same baseline replacement policy) with the identical
 * access stream, asserting after every access that the paper's central
 * guarantees hold:
 *
 *   Mirror (Section IV.A, inclusive Base-Victim and the uncompressed
 *   baseline itself): the Baseline-Cache tag/valid/dirty state and the
 *   baseline replacement state exactly equal the shadow's, way by way,
 *   and the memory writebacks / back-invalidations of every access are
 *   identical.
 *
 *   Hit superset (Section IV.A): a shadow hit implies a hit in the
 *   checked cache — the compressed hit rate can never drop below the
 *   uncompressed baseline's.
 *
 *   Structure (Sections III, IV.A, V): clean-only inclusive victims,
 *   per-physical-way and per-set segment budgets (<= 16 per line, pair
 *   fit, pool fit), no duplicate tags.
 *
 * Every model reaches the checker through its SetAssocLlc skeleton:
 * checkSetInvariants() for structure, and for the mirror the
 * baseLineAt()/baseReplStateSnapshot() pair that the uncompressed
 * cache and the Base-Victim Baseline Cache share.
 *
 * Checking only the accessed set per access is inductively complete:
 * an access mutates exactly one set in both caches, so if every set
 * matched before the access, re-checking the accessed set re-proves
 * the whole-cache property.
 *
 * The two-tag, VSC and DCC models legitimately diverge from the
 * baseline (that is the paper's Section III motivation), so they get
 * structural checks plus an informational shadow hit-rate comparison;
 * the non-inclusive Base-Victim variant (Section IV.B.3) accepts
 * writeback misses the inclusive shadow cannot, so it runs structural
 * checks only.
 *
 * Enable via BVC_CHECK=1 in the environment (or the BVC_CHECK CMake
 * option to default it on); System/MultiCoreSystem then wrap their LLC
 * transparently — stats() forwards to the wrapped model, so all
 * reported numbers are identical to an unchecked run.
 */

#ifndef BVC_CHECK_SHADOW_CHECKER_HH_
#define BVC_CHECK_SHADOW_CHECKER_HH_

#include <functional>
#include <memory>
#include <string>

#include "core/llc_interface.hh"
#include "core/uncompressed_llc.hh"
#include "replacement/factory.hh"

namespace bvc
{

/**
 * True if shadow checking is requested: BVC_CHECK env set to anything
 * but "" / "0" / "off" / "false"; unset falls back to the compile-time
 * default (on iff configured with -DBVC_CHECK=ON).
 */
bool shadowCheckEnabled();

/** Transparent lockstep-checking wrapper around any Llc. */
class ShadowChecker : public Llc
{
  public:
    /**
     * @param inner     the LLC under check (ownership transferred)
     * @param sizeBytes capacity of the reference uncompressed cache —
     *                  must match the inner cache's base geometry
     * @param ways      associativity of the reference cache
     * @param repl      baseline replacement policy; must equal the
     *                  inner cache's Baseline-Cache policy for the
     *                  mirror check to be meaningful
     */
    ShadowChecker(std::unique_ptr<Llc> inner, std::size_t sizeBytes,
                  std::size_t ways, ReplacementKind repl);
    ~ShadowChecker() override;

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    bool probe(Addr blk) const override { return inner_->probe(blk); }
    bool probeBase(Addr blk) const override
    {
        return inner_->probeBase(blk);
    }
    void downgradeHint(Addr blk) override;
    /**
     * Lockstep-checked snoop invalidation: the shadow and the inner
     * cache drop the block together, then the mirror, traffic and
     * structural invariants are re-asserted. A clean Victim-Cache copy
     * must drop silently with the Baseline mirror intact — the
     * never-worse-under-invalidations argument (docs/coherence.md).
     */
    LlcResult coherenceInvalidate(Addr blk) override;
    /** Transparent: resets the wrapped model's (reported) counters. */
    void resetStats() override { inner_->resetStats(); }
    std::size_t validLines() const override
    {
        return inner_->validLines();
    }
    /** Transparent: callers see the wrapped model's name. */
    std::string name() const override { return inner_->name(); }
    /** Transparent: snapshots/energy read the wrapped model's stats. */
    StatGroup &stats() override { return inner_->stats(); }
    const StatGroup &stats() const override { return inner_->stats(); }

    Llc &inner() { return *inner_; }
    /** The reference cache; only lockstep-driven modes have one. */
    UncompressedLlc &shadow() { return *shadow_; }
    bool hasShadow() const { return shadow_ != nullptr; }
    /** True if the full mirror + hit-superset lockstep applies. */
    bool mirrorChecked() const { return mirror_; }

    /** Checked accesses so far (bvfuzz reporting). */
    std::uint64_t checkedAccesses() const { return accesses_; }
    /** Shadow demand hits the checked cache also hit (info counter). */
    std::uint64_t shadowDemandHits() const { return shadowDemandHits_; }
    /** Demand hits the shadow missed (opportunistic wins; info). */
    std::uint64_t extraDemandHits() const { return extraDemandHits_; }

    /**
     * Divergence handler: receives a full description (access index,
     * address, access type, violated invariant). The default calls
     * panic() so gtest death tests and aborting CI runs work; bvfuzz
     * installs a throwing handler to print reproducer seeds instead.
     * A handler that returns resumes execution at the caller's risk.
     */
    using FailHandler = std::function<void(const std::string &)>;
    void setFailHandler(FailHandler handler);

  private:
    void fail(const std::string &why) const;

    /** The model's structural checks on the set the access touched. */
    void checkAccessedSet();
    void checkMirror(Addr blk, const LlcResult &got,
                     const LlcResult &want);

    std::unique_ptr<Llc> inner_;
    std::unique_ptr<UncompressedLlc> shadow_;
    /** inner_ as an LLC model; null for other wrappers (no checks). */
    SetAssocLlc *model_ = nullptr;

    bool mirror_ = false; //!< full lockstep (inclusive BV, baseline)
    Addr lastBlk_ = 0;
    AccessType lastType_ = AccessType::Read;
    bool lastWasInval_ = false; //!< last op was a coherence invalidation
    std::uint64_t accesses_ = 0;
    std::uint64_t shadowDemandHits_ = 0;
    std::uint64_t extraDemandHits_ = 0;
    FailHandler onFail_;
};

/**
 * Wrap `llc` in a ShadowChecker configured from the run parameters.
 * Factored out so System and MultiCoreSystem share one wrap point.
 */
std::unique_ptr<Llc> wrapWithShadowChecker(std::unique_ptr<Llc> llc,
                                           std::size_t sizeBytes,
                                           std::size_t ways,
                                           ReplacementKind repl);

} // namespace bvc

#endif // BVC_CHECK_SHADOW_CHECKER_HH_
