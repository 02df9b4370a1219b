#include "cache/cache.hh"

#include "util/logging.hh"

namespace bvc
{

Cache::HotCounters::HotCounters(StatGroup &stats)
    : accesses(stats.counter("accesses")),
      readHits(stats.counter("read_hits")),
      writeHits(stats.counter("write_hits")),
      readMisses(stats.counter("read_misses")),
      writeMisses(stats.counter("write_misses")),
      evictions(stats.counter("evictions")),
      dirtyEvictions(stats.counter("dirty_evictions")),
      backInvalidations(stats.counter("back_invalidations")),
      dirtyBackInvalidations(stats.counter("dirty_back_invalidations")),
      downgrades(stats.counter("downgrades"))
{
}

Cache::Cache(std::string name, std::size_t sizeBytes, std::size_t ways,
             ReplacementKind repl, unsigned latency)
    : sets_(cacheSetCount(sizeBytes, ways, "cache")),
      ways_(ways),
      latency_(latency),
      tags_(sets_, ways_),
      stats_(std::move(name)),
      ctr_(stats_)
{
    panicIf(sets_ * ways_ * kLineBytes != sizeBytes,
            "cache size not divisible into sets*ways*64B");
    repl_ = makeReplacement(repl, sets_, ways_);
}

SetIdx
Cache::setIndex(Addr blk) const
{
    return SetIdx{(blk >> kLineShift) & (sets_ - 1)};
}

bool
Cache::access(Addr blk, bool write, std::optional<Eviction> &evicted)
{
    evicted.reset();
    ++ctr_.accesses;
    const SetIdx set = setIndex(blk);

    if (const std::optional<WayIdx> hit = tags_.find(set, blk)) {
        ++(write ? ctr_.writeHits : ctr_.readHits);
        if (write)
            tags_.setDirty(set, *hit, true);
        repl_->onHit(set, *hit);
        return true;
    }

    ++(write ? ctr_.writeMisses : ctr_.readMisses);

    const WayIdx victimWay = tags_.fillWay(set, *repl_);
    if (tags_.valid(set, victimWay)) {
        ++ctr_.evictions;
        const bool wasDirty = tags_.dirty(set, victimWay);
        if (wasDirty)
            ++ctr_.dirtyEvictions;
        evicted = Eviction{tags_.tag(set, victimWay), wasDirty};
    }
    tags_.install(set, victimWay,
                  CacheLine{.tag = blk, .valid = true, .dirty = write});
    repl_->onFill(set, victimWay);
    return false;
}

bool
Cache::probe(Addr blk) const
{
    return findWay(blk).has_value();
}

bool
Cache::probeDirty(Addr blk) const
{
    const std::optional<WayIdx> way = findWay(blk);
    return way && tags_.dirty(setIndex(blk), *way);
}

std::optional<bool>
Cache::invalidate(Addr blk)
{
    const std::optional<WayIdx> way = findWay(blk);
    if (!way)
        return std::nullopt;
    const SetIdx set = setIndex(blk);
    const bool wasDirty = tags_.dirty(set, *way);
    tags_.invalidate(set, *way);
    repl_->onInvalidate(set, *way);
    ++ctr_.backInvalidations;
    if (wasDirty)
        ++ctr_.dirtyBackInvalidations;
    return wasDirty;
}

std::optional<bool>
Cache::downgrade(Addr blk)
{
    const std::optional<WayIdx> way = findWay(blk);
    if (!way)
        return std::nullopt;
    const SetIdx set = setIndex(blk);
    const bool wasDirty = tags_.dirty(set, *way);
    tags_.setDirty(set, *way, false);
    ++ctr_.downgrades;
    return wasDirty;
}

void
Cache::forEachLine(
    const std::function<void(const CacheLine &)> &fn) const
{
    for (const SetIdx set : indexRange<SetIdx>(sets_))
        for (const WayIdx way : indexRange<WayIdx>(ways_))
            if (tags_.valid(set, way))
                fn(tags_.line(set, way));
}

void
Cache::flush()
{
    for (const SetIdx set : indexRange<SetIdx>(sets_)) {
        for (const WayIdx way : indexRange<WayIdx>(ways_)) {
            if (tags_.valid(set, way)) {
                tags_.invalidate(set, way);
                repl_->onInvalidate(set, way);
            }
        }
    }
}

} // namespace bvc
