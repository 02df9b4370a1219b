#include "core/vsc_cache.hh"

namespace bvc
{

VscLlc::HotCounters::HotCounters(StatGroup &stats)
    : evictions(stats.counter("evictions")),
      recompactions(stats.counter("recompactions")),
      fillEvictions(stats.counter("fill_evictions")),
      multiEvictFills(stats.counter("multi_evict_fills"))
{
}

VscLlc::VscLlc(std::size_t sizeBytes, std::size_t physWays,
               const Compressor &comp)
    : SetAssocLlc("VSC", sizeBytes, physWays, physWays * 2,
                  ReplacementKind::Lru, kLineShift, true,
                  /*countsBackInvalidations=*/false),
      comp_(comp),
      ctr_(stats_)
{
}

SegCount
VscLlc::usedSegments(SetIdx set) const
{
    SegCount used{0};
    for (const WayIdx s : indexRange<WayIdx>(numWays())) {
        if (tags_.valid(set, s))
            used += tags_.segments(set, s);
    }
    return used;
}

void
VscLlc::evictSlot(SetIdx set, WayIdx victim, LlcResult &result)
{
    ++ctr_.evictions;
    dropWay(set, victim, result);
}

LlcResult
VscLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    if (snoop(setIndex(blk), blk, result))
        ++ctr_.evictions;
    return result;
}

LlcResult
VscLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    countAccess(type);

    if (const std::optional<WayIdx> s = tags_.find(set, blk)) {
        result.hit = true;
        hitWay(set, *s, type);
        if (type == AccessType::Writeback) {
            // A grown line may force evictions to stay within capacity;
            // this is VSC's re-compaction overhead (drawback 1, Sec II).
            tags_.setSegments(set, *s,
                              compressedSegmentsFor(comp_, data));
            evictOldestWhile(
                set, *s,
                [&] { return usedSegments(set) > dataSegments(); },
                [&](WayIdx victim) { evictSlot(set, victim, result); });
            ++ctr_.recompactions;
        }
        return result;
    }

    countMiss(type);
    const SegCount segments = compressedSegmentsFor(comp_, data);

    // Evict in LRU order until both a tag and enough segments free up
    // (drawback 3 of Section II: multiple evictions per fill).
    std::optional<WayIdx> fillSlot = tags_.firstInvalid(set);
    lastFillEvictions_ = 0;
    evictOldestWhile(
        set, std::nullopt,
        [&] {
            return !fillSlot ||
                usedSegments(set) + segments > dataSegments();
        },
        [&](WayIdx victim) {
            evictSlot(set, victim, result);
            ++lastFillEvictions_;
            if (!fillSlot)
                fillSlot = victim;
        });
    ctr_.fillEvictions += lastFillEvictions_;
    if (lastFillEvictions_ > 1)
        ++ctr_.multiEvictFills;

    fillLine(set, *fillSlot,
             CacheLine{.tag = blk, .valid = true, .segments = segments});
    return result;
}

std::string
VscLlc::checkSetInvariants(SetIdx set) const
{
    const std::string violation = poolOverBudget(usedSegments(set));
    return violation.empty() ? SetAssocLlc::checkSetInvariants(set)
                             : violation;
}

} // namespace bvc
