#include "core/two_tag_array.hh"

#include "util/logging.hh"

namespace bvc
{

TwoTagLlc::HotCounters::HotCounters(StatGroup &stats)
    : compressions(stats.counter("compressions")),
      decompressions(stats.counter("decompressions")),
      evictions(stats.counter("evictions")),
      partnerEvictionsOnWrite(
          stats.counter("partner_evictions_on_write")),
      partnerEvictionsOnFill(stats.counter("partner_evictions_on_fill"))
{
}

TwoTagLlc::TwoTagLlc(std::size_t sizeBytes, std::size_t physWays,
                     ReplacementKind repl, const Compressor &comp)
    : SetAssocLlc("two-tag LLC", sizeBytes, physWays, physWays * 2, repl),
      comp_(comp),
      ctr_(stats_)
{
}

bool
TwoTagLlc::fits(SetIdx set, WayIdx s, SegCount segments) const
{
    const WayIdx partner = partnerOf(s);
    if (!tags_.valid(set, partner))
        return true;
    return tags_.segments(set, partner) + segments <= kFullLineSegments;
}

void
TwoTagLlc::evictSlot(SetIdx set, WayIdx s, LlcResult &result)
{
    ++ctr_.evictions;
    dropWay(set, s, result);
}

LlcResult
TwoTagLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    countAccess(type);

    // Doubled tags cost one extra lookup cycle on every access (Sec V).
    result.extraLatency = 1;

    if (const std::optional<WayIdx> s = tags_.find(set, blk)) {
        result.hit = true;
        hitWay(set, *s, type);
        const SegCount storedSegs = tags_.segments(set, *s);
        // A writeback overwrites the whole line, so the stored copy is
        // never decompressed: no latency charge, no counter bump.
        if (type != AccessType::Writeback) {
            result.extraLatency +=
                decompressLatencyFor(comp_, storedSegs);
            if (needsDecompression(storedSegs))
                ++ctr_.decompressions;
            return result;
        }

        const SegCount newSegs = compressedSegmentsFor(comp_, data);
        ++ctr_.compressions;
        if (newSegs > storedSegs && !fits(set, *s, newSegs) &&
            tags_.valid(set, partnerOf(*s))) {
            // The rewritten line grew past its partner: evict the
            // partner (write hit scenario, Section IV.B.5 analog).
            ++ctr_.partnerEvictionsOnWrite;
            evictSlot(set, partnerOf(*s), result);
        }
        tags_.setSegments(set, *s, newSegs);
        return result;
    }

    countMiss(type);
    const SegCount segments = compressedSegmentsFor(comp_, data);
    ++ctr_.compressions;

    // Both schemes allocate a fitting invalid tag slot first (normal
    // cache allocation); they differ in victim selection when none is
    // available.
    std::optional<WayIdx> fillSlot;
    for (const WayIdx cand : indexRange<WayIdx>(numWays())) {
        if (!tags_.valid(set, cand) && fits(set, cand, segments)) {
            fillSlot = cand;
            break;
        }
    }

    if (!fillSlot) {
        fillSlot = chooseVictimSlot(set, segments);
        if (tags_.valid(set, *fillSlot))
            evictSlot(set, *fillSlot, result);
    }
    if (!fits(set, *fillSlot, segments)) {
        // Partner line victimization (Section III option 1).
        ++ctr_.partnerEvictionsOnFill;
        evictSlot(set, partnerOf(*fillSlot), result);
    }

    fillLine(set, *fillSlot,
             CacheLine{.tag = blk, .valid = true, .segments = segments});
    return result;
}

LlcResult
TwoTagLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    if (snoop(setIndex(blk), blk, result))
        ++ctr_.evictions;
    return result;
}

std::string
TwoTagLlc::checkSetInvariants(SetIdx set) const
{
    std::string violation = SetAssocLlc::checkSetInvariants(set);
    for (WayIdx s{0}; violation.empty() && s.get() < numWays();
         s = WayIdx{s.get() + 2}) {
        const CacheLine line = tags_.line(set, s);
        const CacheLine partner = tags_.line(set, partnerOf(s));
        if (line.valid && partner.valid &&
            line.segments + partner.segments > kFullLineSegments) {
            violation = "pair-fit violated in physical way " +
                std::to_string(s.get() / 2) + ": " +
                std::to_string(line.segments.get()) + " + " +
                std::to_string(partner.segments.get()) + " segments";
        }
    }
    return violation;
}

WayIdx
TwoTagNaiveLlc::chooseVictimSlot(SetIdx set, SegCount)
{
    // Strictly follow the policy: whoever it names, even if that forces
    // the partner line out as well.
    return repl_->victim(set);
}

WayIdx
TwoTagModifiedLlc::chooseVictimSlot(SetIdx set, SegCount segments)
{
    // Among the policy's equally-evictable candidates, keep only those
    // whose replacement leaves the partner in place; of these, evict the
    // one freeing the most space (largest compressed size), ECM-style.
    const auto candidates = repl_->preferredVictims(set);
    std::optional<WayIdx> best;
    SegCount bestSegments{0};
    for (const WayIdx cand : candidates) {
        if (!tags_.valid(set, cand))
            continue;
        // Fit check against the partner, ignoring the candidate itself
        // (it is being evicted).
        const SegCount candSegs = tags_.segments(set, cand);
        if (fits(set, cand, segments) &&
            (!best || candSegs > bestSegments)) {
            best = cand;
            bestSegments = candSegs;
        }
    }
    if (best)
        return *best;
    // No size-compatible candidate: fall back to partner victimization.
    return repl_->victim(set);
}

} // namespace bvc
