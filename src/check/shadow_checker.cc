#include "check/shadow_checker.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

namespace bvc
{

namespace
{

const char *
accessTypeName(AccessType type)
{
    switch (type) {
      case AccessType::Read: return "Read";
      case AccessType::Write: return "Write";
      case AccessType::Prefetch: return "Prefetch";
      case AccessType::Writeback: return "Writeback";
    }
    return "?";
}

std::string
addrList(BlockList addrs)
{
    std::sort(addrs.begin(), addrs.end());
    std::string out = "[";
    for (std::size_t i = 0; i < addrs.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += std::to_string(addrs[i]);
    }
    return out + "]";
}

} // namespace

bool
shadowCheckEnabled()
{
    if (const char *env = std::getenv("BVC_CHECK")) {
        return !(env[0] == '\0' || std::strcmp(env, "0") == 0 ||
                 std::strcmp(env, "off") == 0 ||
                 std::strcmp(env, "false") == 0);
    }
#ifdef BVC_CHECK_DEFAULT_ON
    return true;
#else
    return false;
#endif
}

ShadowChecker::ShadowChecker(std::unique_ptr<Llc> inner,
                             std::size_t sizeBytes, std::size_t ways,
                             ReplacementKind repl)
    : Llc("llc_checker"),
      inner_(std::move(inner))
{
    panicIf(inner_ == nullptr, "ShadowChecker: null inner LLC");
    model_ = dynamic_cast<SetAssocLlc *>(inner_.get());
    if (model_ == nullptr)
        return;

    // Full lockstep applies where the paper guarantees the mirror: the
    // inclusive Base-Victim cache (Section IV.A) and the baseline
    // itself (a determinism self-check). The two-tag / VSC / DCC
    // models legitimately diverge (Section III), so their shadow is
    // informational (hit-rate comparison, no assertion). The
    // non-inclusive variant (Section IV.B.3) takes writeback misses an
    // inclusive reference cannot follow, so it gets structural checks
    // only.
    mirror_ = model_->mirrorsBaseline();
    if (model_->inclusive())
        shadow_ = std::make_unique<UncompressedLlc>(sizeBytes, ways,
                                                    repl);
    if (mirror_) {
        panicIf(shadow_->numSets() != model_->numSets() ||
                    shadow_->numWays() != model_->numWays(),
                "ShadowChecker: shadow geometry does not match the "
                "Baseline Cache");
    }
}

ShadowChecker::~ShadowChecker() = default;

void
ShadowChecker::setFailHandler(FailHandler handler)
{
    onFail_ = std::move(handler);
}

void
ShadowChecker::fail(const std::string &why) const
{
    const std::string msg = "shadow check failed [" + inner_->name() +
        ", access #" + std::to_string(accesses_) + ", " +
        (lastWasInval_ ? "CoherenceInval"
                       : accessTypeName(lastType_)) +
        " blk " + std::to_string(lastBlk_) + "]: " + why;
    if (onFail_) {
        onFail_(msg);
        return;
    }
    panic(msg);
}

void
ShadowChecker::checkMirror(Addr blk, const LlcResult &got,
                           const LlcResult &want)
{
    // Hit superset (Section IV.A): every shadow hit must hit here too,
    // and it must be served by the Baseline Cache (mirror: the block
    // is base content in both).
    if (want.hit) {
        if (!got.hit)
            fail("shadow hit but the checked cache missed "
                 "(hit-rate guarantee violated)");
        else if (got.victimHit)
            fail("shadow hit was served by the Victim Cache "
                 "(B/V duplicate or mirror divergence)");
        else if (lastType_ == AccessType::Read)
            ++shadowDemandHits_;
    } else if (got.hit) {
        // Opportunistic win: legal only as a Victim-Cache hit of the
        // Base-Victim design; the baseline mirror itself may never
        // out-hit its shadow.
        if (!got.victimHit)
            fail("checked cache hit where the shadow missed without a "
                 "Victim-Cache hit (mirror divergence)");
        else if (lastType_ == AccessType::Read)
            ++extraDemandHits_;
    }

    // Way-exact tag/valid/dirty mirror of the accessed set. Way-exact
    // (not just same contents) because both caches fill through the one
    // uncompressed fill rule, TagArray::fillWay().
    const SetIdx set = shadow_->setIndex(blk);
    for (const WayIdx w : indexRange<WayIdx>(shadow_->numWays())) {
        const CacheLine ref = shadow_->baseLineAt(set, w);
        const CacheLine base = model_->baseLineAt(set, w);
        if (ref.valid != base.valid)
            fail("valid-bit mismatch in set " +
                 std::to_string(set.get()) + " way " +
                 std::to_string(w.get()));
        if (!ref.valid)
            continue;
        if (ref.tag != base.tag)
            fail("tag mismatch in set " + std::to_string(set.get()) +
                 " way " + std::to_string(w.get()) + ": base " +
                 std::to_string(base.tag) + " vs shadow " +
                 std::to_string(ref.tag));
        if (ref.dirty != base.dirty)
            fail("dirty-bit mismatch in set " +
                 std::to_string(set.get()) + " way " +
                 std::to_string(w.get()) + " (blk " +
                 std::to_string(ref.tag) + ")");
    }

    // Baseline replacement state must mirror exactly — this is what
    // makes future victim choices provably identical.
    if (shadow_->baseReplStateSnapshot(set) !=
        model_->baseReplStateSnapshot(set))
        fail("baseline replacement state diverged from the shadow in "
             "set " + std::to_string(set.get()));

    // Memory traffic equivalence: dirty base victims write back at the
    // same points (victim insertions are clean, hence silent), and the
    // same lines leave the baseline content.
    LlcResult gotCopy = got;
    LlcResult wantCopy = want;
    auto sorted = [](BlockList &v) {
        std::sort(v.begin(), v.end());
    };
    sorted(gotCopy.memWritebacks);
    sorted(wantCopy.memWritebacks);
    if (gotCopy.memWritebacks != wantCopy.memWritebacks)
        fail("memory writebacks diverged: got " +
             addrList(got.memWritebacks) + " want " +
             addrList(want.memWritebacks));
    sorted(gotCopy.backInvalidations);
    sorted(wantCopy.backInvalidations);
    if (gotCopy.backInvalidations != wantCopy.backInvalidations)
        fail("back-invalidations diverged: got " +
             addrList(got.backInvalidations) + " want " +
             addrList(want.backInvalidations));
}

void
ShadowChecker::checkAccessedSet()
{
    if (model_ == nullptr)
        return;
    const std::string violation =
        model_->checkSetInvariants(model_->setIndex(lastBlk_));
    if (!violation.empty())
        fail("structural invariant violated: " + violation);
}

LlcResult
ShadowChecker::coherenceInvalidate(Addr blk)
{
    ++accesses_;
    lastBlk_ = blk;
    lastWasInval_ = true;

    if (mirror_) {
        // A baseline copy must leave both caches with identical traffic
        // (writeback iff dirty, one back-invalidation); a victim-only
        // copy exists in neither the shadow nor the baseline content,
        // so both results are empty and the mirror is untouched.
        const LlcResult want = shadow_->coherenceInvalidate(blk);
        const LlcResult got = inner_->coherenceInvalidate(blk);
        checkMirror(blk, got, want);
        checkAccessedSet();
        return got;
    }

    // Divergent models: keep the informational shadow's content in sync
    // with the external invalidation stream, then re-check structure.
    if (shadow_ != nullptr)
        shadow_->coherenceInvalidate(blk);
    const LlcResult got = inner_->coherenceInvalidate(blk);
    checkAccessedSet();
    return got;
}

LlcResult
ShadowChecker::access(Addr blk, AccessType type,
                      const std::uint8_t *data)
{
    ++accesses_;
    lastBlk_ = blk;
    lastType_ = type;
    lastWasInval_ = false;

    if (mirror_) {
        if (type == AccessType::Writeback && !shadow_->probe(blk)) {
            // The shadow would panic on an inclusion-violating
            // writeback; report it as a divergence instead so fuzzing
            // harnesses get a reproducer.
            fail("writeback to a block absent from the shadow "
                 "baseline (inclusion / mirror violated)");
            return inner_->access(blk, type, data);
        }
        const LlcResult want = shadow_->access(blk, type, data);
        const LlcResult got = inner_->access(blk, type, data);
        checkMirror(blk, got, want);
        checkAccessedSet();
        return got;
    }

    // Divergent models: feed the shadow the same demand/prefetch
    // stream for the hit-rate comparison (writebacks only toggle a
    // dirty bit in an uncompressed cache and could miss here, so they
    // are skipped), then check structural invariants.
    bool shadowHit = false;
    bool shadowRan = false;
    if (shadow_ != nullptr && type != AccessType::Writeback) {
        shadowHit = shadow_->access(blk, type, data).hit;
        shadowRan = true;
    }
    const LlcResult got = inner_->access(blk, type, data);
    if (shadowRan && type == AccessType::Read) {
        if (shadowHit && got.hit)
            ++shadowDemandHits_;
        else if (!shadowHit && got.hit)
            ++extraDemandHits_;
    }
    checkAccessedSet();
    return got;
}

void
ShadowChecker::downgradeHint(Addr blk)
{
    inner_->downgradeHint(blk);
    // The shadow's policy must see the same hint sequence (CHAR keeps
    // hint state the mirror check compares).
    if (shadow_ != nullptr)
        shadow_->downgradeHint(blk);
}

std::unique_ptr<Llc>
wrapWithShadowChecker(std::unique_ptr<Llc> llc, std::size_t sizeBytes,
                      std::size_t ways, ReplacementKind repl)
{
    return std::make_unique<ShadowChecker>(std::move(llc), sizeBytes,
                                           ways, repl);
}

} // namespace bvc
