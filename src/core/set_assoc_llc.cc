#include "core/set_assoc_llc.hh"

#include <algorithm>

#include "util/logging.hh"

namespace bvc
{

SetAssocLlc::CommonCounters::CommonCounters(StatGroup &stats,
                                            Counter &backInvals)
    : accesses(stats.counter("accesses")),
      demandAccesses(stats.counter("demand_accesses")),
      fills(stats.counter("fills")),
      writebackHits(stats.counter("writeback_hits")),
      demandHits(stats.counter("demand_hits")),
      prefetchHits(stats.counter("prefetch_hits")),
      demandMisses(stats.counter("demand_misses")),
      prefetchMisses(stats.counter("prefetch_misses")),
      memWritebacks(stats.counter("mem_writebacks")),
      backInvalidations(backInvals),
      coherenceInvalidations(stats.counter("coherence_invalidations"))
{
}

SetAssocLlc::SetAssocLlc(const char *what, std::size_t sizeBytes,
                         std::size_t physWays, std::size_t tagWays,
                         ReplacementKind repl, unsigned setShift,
                         bool inclusive, bool countsBackInvalidations)
    : Llc("llc"),
      sets_(cacheSetCount(sizeBytes, physWays, what)),
      physWays_(physWays),
      setShift_(setShift),
      inclusive_(inclusive),
      tags_(sets_, tagWays),
      repl_(makeReplacement(repl, sets_, tagWays)),
      common_(stats_, countsBackInvalidations
                          ? stats_.counter("back_invalidations")
                          : uncountedBackInvalidations_)
{
}

void
SetAssocLlc::failInclusion() const
{
    panic(name() + ": writeback miss violates inclusion");
}

void
SetAssocLlc::downgradeHint(Addr blk)
{
    const SetIdx set = setIndex(blk);
    if (const std::optional<WayIdx> way = tags_.find(set, blk))
        repl_->downgradeHint(set, *way);
}

bool
SetAssocLlc::snoop(SetIdx set, Addr blk, LlcResult &result)
{
    const std::optional<WayIdx> way = tags_.find(set, blk);
    if (!way)
        return false;
    dropWay(set, *way, result);
    ++common_.coherenceInvalidations;
    return true;
}

LlcResult
SetAssocLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    snoop(setIndex(blk), blk, result);
    return result;
}

std::vector<Addr>
SetAssocLlc::baseSetContents(SetIdx set) const
{
    std::vector<Addr> contents;
    for (const WayIdx w : indexRange<WayIdx>(tags_.ways())) {
        if (tags_.valid(set, w))
            contents.push_back(tags_.tag(set, w));
    }
    std::sort(contents.begin(), contents.end());
    return contents;
}

std::string
SetAssocLlc::segmentBound(const TagArray &tags, SetIdx set,
                          const char *what)
{
    for (const WayIdx w : indexRange<WayIdx>(tags.ways())) {
        if (tags.valid(set, w) && tags.segments(set, w) > kFullLineSegments)
            return std::string(what) + " exceeds 16 segments in way " +
                std::to_string(w.get());
    }
    return {};
}

std::string
SetAssocLlc::duplicateTag(const TagArray &tags, SetIdx set,
                          const char *where)
{
    for (const WayIdx w : indexRange<WayIdx>(tags.ways())) {
        if (!tags.valid(set, w))
            continue;
        for (WayIdx other{w.get() + 1}; other.get() < tags.ways();
             ++other) {
            if (tags.tag(set, other) == tags.tag(set, w))
                return std::string("duplicate tag in ") + where +
                    " (ways " + std::to_string(w.get()) + " and " +
                    std::to_string(other.get()) + ")";
        }
    }
    return {};
}

std::string
SetAssocLlc::poolOverBudget(SegCount used) const
{
    if (used <= dataSegments())
        return {};
    return "segment pool over budget: " + std::to_string(used.get()) +
        " > " + std::to_string(dataSegments().get());
}

std::string
SetAssocLlc::checkSetInvariants(SetIdx set) const
{
    std::string violation = segmentBound(tags_, set, "line");
    if (violation.empty())
        violation = duplicateTag(tags_, set, "the tag array");
    return violation;
}

bool
SetAssocLlc::checkInvariants() const
{
    for (const SetIdx set : indexRange<SetIdx>(sets_))
        if (!checkSetInvariants(set).empty())
            return false;
    return true;
}

} // namespace bvc
