#include "core/dcc_cache.hh"

#include "util/logging.hh"

namespace bvc
{

DccLlc::HotCounters::HotCounters(StatGroup &stats)
    : evictions(stats.counter("evictions")),
      superblockEvictions(stats.counter("superblock_evictions")),
      superblockFills(stats.counter("superblock_fills"))
{
}

DccLlc::DccLlc(std::size_t sizeBytes, std::size_t physWays,
               const Compressor &comp)
    // Super-blocks (not lines) interleave across sets so that all four
    // sub-blocks of a super-block land in the same set.
    : SetAssocLlc("DCC", sizeBytes, physWays, physWays,
                  ReplacementKind::Lru, kLineShift + 2),
      subMeta_(numSets() * physWays * kSubBlocks, 0),
      comp_(comp),
      ctr_(stats_)
{
}

Addr
DccLlc::superTag(Addr blk)
{
    return blk & ~static_cast<Addr>(kSubBlocks * kLineBytes - 1);
}

unsigned
DccLlc::subIndex(Addr blk)
{
    return static_cast<unsigned>((blk >> kLineShift) % kSubBlocks);
}

void
DccLlc::clearSuperBlock(SetIdx set, WayIdx way)
{
    tags_.invalidate(set, way);
    for (unsigned s = 0; s < kSubBlocks; ++s)
        subMeta_[metaIndex(set, way, s)] = 0;
    repl_->onInvalidate(set, way);
}

WayIdx
DccLlc::allocSuperBlock(SetIdx set, Addr blk)
{
    const std::optional<WayIdx> way = tags_.firstInvalid(set);
    panicIf(!way, "DCC: no free tag after makeRoom");
    tags_.install(set, *way, CacheLine{.tag = superTag(blk), .valid = true});
    return *way;
}

SegCount
DccLlc::usedSegments(SetIdx set) const
{
    SegCount used{0};
    for (const WayIdx w : indexRange<WayIdx>(numWays())) {
        if (!tags_.valid(set, w))
            continue;
        for (unsigned s = 0; s < kSubBlocks; ++s)
            if (present(set, w, s))
                used += subSegments(set, w, s);
    }
    return used;
}

void
DccLlc::evictSuperBlock(SetIdx set, WayIdx way, LlcResult &result)
{
    panicIf(!tags_.valid(set, way), "DCC: evicting invalid super-block");
    const Addr base = tags_.tag(set, way);
    for (unsigned s = 0; s < kSubBlocks; ++s) {
        if (!present(set, way, s))
            continue;
        drop(base + s * kLineBytes, subDirty(set, way, s), result);
        ++ctr_.evictions;
    }
    clearSuperBlock(set, way);
    ++ctr_.superblockEvictions;
}

void
DccLlc::makeRoom(SetIdx set, SegCount segments, bool needTag,
                 LlcResult &result)
{
    bool haveTag = !needTag || tags_.firstInvalid(set).has_value();
    evictOldestWhile(
        set, std::nullopt,
        [&] {
            return usedSegments(set) + segments > dataSegments() ||
                !haveTag;
        },
        [&](WayIdx victim) {
            evictSuperBlock(set, victim, result);
            haveTag = true;
        });
}

LlcResult
DccLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> way = tags_.find(set, superTag(blk));
    const unsigned sub = subIndex(blk);
    if (!way || !present(set, *way, sub))
        return result;
    drop(blk, subDirty(set, *way, sub), result);
    setSubMeta(set, *way, sub, false, false, kZeroLineSegments);
    ++ctr_.evictions;
    ++common_.coherenceInvalidations;
    // Free the tag when the last sub-block leaves the super-block.
    bool any = false;
    for (unsigned s = 0; s < kSubBlocks && !any; ++s)
        any = present(set, *way, s);
    if (!any)
        clearSuperBlock(set, *way);
    return result;
}

LlcResult
DccLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    const unsigned sub = subIndex(blk);
    countAccess(type);

    std::optional<WayIdx> way = tags_.find(set, superTag(blk));
    if (way && present(set, *way, sub)) {
        // Sub-block hit.
        result.hit = true;
        countHit(type);
        if (type == AccessType::Read)
            repl_->onHit(set, *way);
        if (type != AccessType::Writeback)
            return result;

        const SegCount newSegs = compressedSegmentsFor(comp_, data);
        // Growth may overflow the pool; DCC frees other super-blocks
        // (no re-compaction needed: indirection).
        setSubMeta(set, *way, sub, true, true, SegCount{0});
        makeRoom(set, newSegs, false, result);
        // The accessed super-block may itself have been evicted while
        // making room; re-locate it.
        way = tags_.find(set, superTag(blk));
        if (!way) {
            // Extremely tight set: reinstall just this sub-block.
            makeRoom(set, newSegs, true, result);
            way = allocSuperBlock(set, blk);
            repl_->onFill(set, *way);
        }
        setSubMeta(set, *way, sub, true, true, newSegs);
        return result;
    }

    countMiss(type);
    const SegCount segments = compressedSegmentsFor(comp_, data);
    makeRoom(set, segments, !way.has_value(), result);
    // makeRoom may have evicted the super-block we matched earlier.
    way = tags_.find(set, superTag(blk));
    if (!way) {
        way = allocSuperBlock(set, blk);
        ++ctr_.superblockFills;
    }

    setSubMeta(set, *way, sub, true, false, segments);
    repl_->onFill(set, *way);
    ++common_.fills;
    return result;
}

bool
DccLlc::probe(Addr blk) const
{
    const SetIdx set = setIndex(blk);
    const std::optional<WayIdx> way = tags_.find(set, superTag(blk));
    return way && present(set, *way, subIndex(blk));
}

std::size_t
DccLlc::validLines() const
{
    std::size_t count = 0;
    for (const std::uint8_t meta : subMeta_)
        count += linemeta::valid(meta) ? 1 : 0;
    return count;
}

std::string
DccLlc::checkSetInvariants(SetIdx set) const
{
    const std::string violation = poolOverBudget(usedSegments(set));
    if (!violation.empty())
        return violation;
    for (const WayIdx w : indexRange<WayIdx>(numWays())) {
        for (unsigned s = 0; s < kSubBlocks; ++s) {
            if (!present(set, w, s))
                continue;
            if (!tags_.valid(set, w))
                return "present sub-block under an invalid tag (way " +
                    std::to_string(w.get()) + ")";
            if (subSegments(set, w, s) > kFullLineSegments)
                return "sub-block exceeds 16 segments (way " +
                    std::to_string(w.get()) + ")";
        }
    }
    return duplicateTag(tags_, set, "the super-block tags");
}

} // namespace bvc
