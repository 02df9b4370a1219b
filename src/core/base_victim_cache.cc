#include "core/base_victim_cache.hh"

#include "util/logging.hh"

namespace bvc
{

BaseVictimLlc::HotCounters::HotCounters(StatGroup &stats)
    : compressions(stats.counter("compressions")),
      decompressions(stats.counter("decompressions")),
      baseHits(stats.counter("base_hits")),
      victimHits(stats.counter("victim_hits")),
      victimPrefetchHits(stats.counter("victim_prefetch_hits")),
      victimWriteHits(stats.counter("victim_write_hits")),
      promotions(stats.counter("promotions")),
      dataMovements(stats.counter("data_movements")),
      writebackFills(stats.counter("writeback_fills")),
      baseEvictions(stats.counter("base_evictions")),
      victimInserts(stats.counter("victim_inserts")),
      victimInsertFailures(stats.counter("victim_insert_failures")),
      dirtyVictimEvictions(stats.counter("dirty_victim_evictions")),
      victimSilentEvictions(stats.counter("victim_silent_evictions")),
      victimSilentDisplaced(
          stats.counter("victim_silent_evictions_displaced")),
      victimSilentPartner(
          stats.counter("victim_silent_evictions_partner")),
      victimSilentWriteGrowth(
          stats.counter("victim_silent_evictions_write_growth")),
      victimCoherenceInvalidations(
          stats.counter("victim_coherence_invalidations"))
{
}

Counter &
BaseVictimLlc::HotCounters::silentEvictions(VictimEvictReason reason)
{
    switch (reason) {
      case VictimEvictReason::Displaced: return victimSilentDisplaced;
      case VictimEvictReason::Partner: return victimSilentPartner;
      case VictimEvictReason::WriteGrowth: return victimSilentWriteGrowth;
    }
    panic("BaseVictimLlc: unknown victim eviction reason");
}

BaseVictimLlc::BaseVictimLlc(std::size_t sizeBytes, std::size_t physWays,
                             ReplacementKind baseRepl,
                             VictimReplKind victimRepl,
                             const Compressor &comp, bool inclusive,
                             unsigned segmentQuantumBytes)
    : SetAssocLlc("Base-Victim LLC", sizeBytes, physWays, physWays,
                  baseRepl, kLineShift, inclusive),
      victim_(numSets(), physWays),
      victimRepl_(makeVictimReplacement(victimRepl, numSets(), physWays)),
      comp_(comp),
      quantumSegments_(segmentQuantumBytes / kSegmentBytes),
      ctr_(stats_)
{
    panicIf(quantumSegments_ == 0 ||
                kSegmentsPerLine % quantumSegments_ != 0,
            "segment quantum must divide the line size");
}

SegCount
BaseVictimLlc::quantizedSegments(const std::uint8_t *data) const
{
    const unsigned segments = compressedSegmentsFor(comp_, data).get();
    // Round up to the size-field granularity (e.g. 8B alignment stores
    // sizes in 2-segment steps).
    return SegCount{(segments + quantumSegments_ - 1) /
                    quantumSegments_ * quantumSegments_};
}

void
BaseVictimLlc::silentEvictVictim(SetIdx set, WayIdx way,
                                 VictimEvictReason reason,
                                 LlcResult &result)
{
    if (!victim_.valid(set, way))
        return;
    const bool wasDirty = victim_.dirty(set, way);
    if (inclusive()) {
        panicIf(wasDirty,
                "Base-Victim: dirty line in the inclusive Victim Cache");
    } else if (wasDirty) {
        // Non-inclusive mode keeps dirty victims (Section IV.B.3);
        // dropping one costs a memory writeback.
        writeBack(victim_.tag(set, way), result);
        ++ctr_.dirtyVictimEvictions;
    }
    victim_.invalidate(set, way);
    ++ctr_.silentEvictions(reason);
    ++ctr_.victimSilentEvictions;
}

bool
BaseVictimLlc::tryInsertVictim(SetIdx set, const CacheLine &line,
                               LlcResult &result)
{
    // Collect every way where the victim fits beside the base line,
    // into a member buffer so a Baseline eviction does not allocate.
    std::vector<VictimCandidate> &candidates = candidateScratch_;
    candidates.clear();
    for (const WayIdx w : indexRange<WayIdx>(numWays())) {
        const SegCount baseSegs = tags_.valid(set, w)
                                      ? tags_.segments(set, w)
                                      : kZeroLineSegments;
        if (baseSegs + line.segments > kFullLineSegments)
            continue;
        candidates.push_back(VictimCandidate{w, baseSegs,
                                             victim_.valid(set, w),
                                             victim_.segments(set, w)});
    }

    if (candidates.empty()) {
        // The replaced line cannot be kept anywhere: a plain eviction,
        // exactly as in the uncompressed cache.
        ++ctr_.victimInsertFailures;
        return false;
    }

    const WayIdx way = victimRepl_->choose(set, candidates);
    silentEvictVictim(set, way, VictimEvictReason::Displaced, result);

    CacheLine parked = line;
    if (inclusive())
        parked.dirty = false; // written back on insertion (Section IV.A)
    victim_.install(set, way, parked);
    victimRepl_->onInsert(set, way);
    ++ctr_.victimInserts;
    // Migrating the line between physical ways costs one data-array
    // read plus one write (Section VI.D power discussion).
    ctr_.dataMovements += 1;
    return true;
}

void
BaseVictimLlc::installBase(SetIdx set, WayIdx way,
                           const CacheLine &incoming, LlcResult &result)
{
    CacheLine replaced = tags_.line(set, way);

    // An inclusive cache writes a dirty replaced line back so that the
    // Victim Cache only ever holds clean lines (Sec IV.A), and the line
    // leaves the baseline content whether it is evicted or parked.
    if (replaced.valid) {
        ++ctr_.baseEvictions;
        if (inclusive())
            drop(replaced.tag, replaced.dirty, result);
    }

    // Displace the victim partner if the incoming line no longer fits
    // with it in the same physical way.
    if (victim_.valid(set, way) &&
        incoming.segments + victim_.segments(set, way) >
            kFullLineSegments) {
        silentEvictVictim(set, way, VictimEvictReason::Partner, result);
    }

    fillLine(set, way, incoming);

    if (replaced.valid) {
        if (inclusive())
            replaced.dirty = false; // written back above if dirty
        const bool parked = tryInsertVictim(set, replaced, result);
        if (!parked && !inclusive() && replaced.dirty) {
            // Non-inclusive: a dropped dirty victim must reach memory.
            writeBack(replaced.tag, result);
        }
    }
}

LlcResult
BaseVictimLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    countAccess(type);

    // Doubled tags cost one extra lookup cycle on every access (Sec V).
    result.extraLatency = 1;

    // --- Hit in the Baseline Cache (Sections IV.B.4 / IV.B.5) ---
    if (const std::optional<WayIdx> bway = tags_.find(set, blk)) {
        result.hit = true;
        hitWay(set, *bway, type);
        if (type == AccessType::Read)
            ++ctr_.baseHits;
        // A writeback overwrites the whole line, so the stored copy is
        // never decompressed: no latency charge, no counter bump.
        if (type != AccessType::Writeback) {
            const SegCount storedSegs = tags_.segments(set, *bway);
            result.extraLatency +=
                decompressLatencyFor(comp_, storedSegs);
            if (needsDecompression(storedSegs))
                ++ctr_.decompressions;
            return result;
        }

        const SegCount newSegs = quantizedSegments(data);
        ++ctr_.compressions;
        if (victim_.valid(set, *bway) &&
            newSegs + victim_.segments(set, *bway) > kFullLineSegments) {
            // Write hit grows the base line: silently evict the victim
            // partner even if it was recently used (IV.B.5).
            silentEvictVictim(set, *bway, VictimEvictReason::WriteGrowth,
                              result);
        }
        tags_.setSegments(set, *bway, newSegs);
        return result;
    }

    // --- Hit in the Victim Cache (Sections IV.B.2 / IV.B.3) ---
    if (const std::optional<WayIdx> vway = victim_.find(set, blk)) {
        panicIf(type == AccessType::Writeback && inclusive(),
                "Base-Victim: writeback hit the Victim Cache "
                "(impossible for inclusive hierarchies, Section IV.B.3)");
        result.hit = true;
        result.victimHit = true;
        countHit(type);
        if (type == AccessType::Read)
            ++ctr_.victimHits;
        else if (type == AccessType::Writeback)
            ++ctr_.victimWriteHits;
        else
            ++ctr_.victimPrefetchHits;

        CacheLine promoted = victim_.line(set, *vway);
        if (type == AccessType::Writeback) {
            // Non-inclusive write hit (Section IV.B.3): the rewritten
            // line is recompressed, then promoted like a read hit.
            promoted.dirty = true;
            promoted.segments = quantizedSegments(data);
            ++ctr_.compressions;
        } else {
            // Only reads and prefetches decompress the stored copy.
            result.extraLatency +=
                decompressLatencyFor(comp_, promoted.segments);
            if (needsDecompression(promoted.segments))
                ++ctr_.decompressions;
        }

        // De-allocate from the Victim Cache, then install into the
        // Baseline Cache exactly as the uncompressed cache would fill
        // on its (inevitable) miss for this access. The vacated victim
        // slot stays eligible for the displaced base line (see
        // installBase()).
        victimRepl_->onHit(set, *vway);
        victim_.invalidate(set, *vway);
        ++ctr_.promotions;
        ctr_.dataMovements += 1;

        installBase(set, fillWay(set), promoted, result);
        return result;
    }

    // --- Miss (Section IV.B.1) ---
    if (type == AccessType::Writeback && !inclusive())
        ++ctr_.writebackFills;
    else
        countMiss(type);

    const CacheLine incoming{.tag = blk,
                             .valid = true,
                             .dirty = type == AccessType::Writeback,
                             .segments = quantizedSegments(data)};
    ++ctr_.compressions;
    installBase(set, fillWay(set), incoming, result);
    return result;
}

LlcResult
BaseVictimLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);

    // A baseline copy drops exactly as in the uncompressed reference,
    // so the mirror and replacement state stay in lockstep.
    if (snoop(set, blk, result))
        return result;

    if (const std::optional<WayIdx> vway = victim_.find(set, blk)) {
        // Victim copies are opportunistic extras the baseline never
        // held: upper levels cannot cache them (no back-invalidation)
        // and inclusive victims are clean (no writeback) — the drop is
        // silent, so the hit rate stays >= the baseline's.
        if (!inclusive() && victim_.dirty(set, *vway)) {
            writeBack(blk, result);
            ++ctr_.dirtyVictimEvictions;
        }
        victim_.invalidate(set, *vway);
        ++common_.coherenceInvalidations;
        ++ctr_.victimCoherenceInvalidations;
    }
    return result;
}

bool
BaseVictimLlc::probe(Addr blk) const
{
    const SetIdx set = setIndex(blk);
    return tags_.find(set, blk).has_value() ||
        victim_.find(set, blk).has_value();
}

bool
BaseVictimLlc::probeVictim(Addr blk) const
{
    return victim_.find(setIndex(blk), blk).has_value();
}

std::size_t
BaseVictimLlc::validLines() const
{
    return tags_.validCount() + victim_.validCount();
}

std::string
BaseVictimLlc::checkSetInvariants(SetIdx set) const
{
    std::string violation = SetAssocLlc::checkSetInvariants(set);
    if (violation.empty())
        violation = segmentBound(victim_, set, "victim line");
    if (!violation.empty())
        return violation;
    for (const WayIdx w : indexRange<WayIdx>(numWays())) {
        const CacheLine vict = victim_.line(set, w);
        if (!vict.valid)
            continue;
        if (inclusive() && vict.dirty)
            return "dirty victim line in the inclusive Victim Cache "
                   "(way " + std::to_string(w.get()) + ")";
        const CacheLine base = tags_.line(set, w);
        if (base.valid &&
            base.segments + vict.segments > kFullLineSegments) {
            return "pair-fit violated in way " + std::to_string(w.get()) +
                ": " + std::to_string(base.segments.get()) + " + " +
                std::to_string(vict.segments.get()) + " segments";
        }
        if (tags_.find(set, vict.tag).has_value())
            return "tag in both B and V sections (way " +
                std::to_string(w.get()) + ")";
    }
    return duplicateTag(victim_, set, "the Victim Cache");
}

} // namespace bvc
