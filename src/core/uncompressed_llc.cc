#include "core/uncompressed_llc.hh"

namespace bvc
{

UncompressedLlc::UncompressedLlc(std::size_t sizeBytes, std::size_t ways,
                                 ReplacementKind repl)
    : SetAssocLlc("LLC", sizeBytes, ways, ways, repl),
      evictions_(stats_.counter("evictions"))
{
}

LlcResult
UncompressedLlc::access(Addr blk, AccessType type, const std::uint8_t *)
{
    LlcResult result;
    const SetIdx set = setIndex(blk);
    countAccess(type);

    if (const std::optional<WayIdx> way = tags_.find(set, blk)) {
        result.hit = true;
        hitWay(set, *way, type);
        return result;
    }

    countMiss(type);
    const WayIdx way = fillWay(set);
    if (tags_.valid(set, way)) {
        ++evictions_;
        drop(tags_.tag(set, way), tags_.dirty(set, way), result);
    }
    fillLine(set, way, CacheLine{.tag = blk, .valid = true});
    return result;
}

} // namespace bvc
