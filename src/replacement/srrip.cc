#include "replacement/srrip.hh"

#include <algorithm>

namespace bvc
{

SrripPolicy::SrripPolicy(std::size_t sets, std::size_t ways)
    : ReplacementPolicy(sets, ways),
      rrpvs_(sets * ways, kMaxRrpv)
{
}

unsigned
SrripPolicy::rrpv(SetIdx set, WayIdx way) const
{
    return rrpvs_[idx(set, way)];
}

void
SrripPolicy::onFill(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = kInsertRrpv;
}

void
SrripPolicy::onHit(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = 0;
}

void
SrripPolicy::onInvalidate(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = kMaxRrpv;
}

std::vector<std::uint64_t>
SrripPolicy::stateSnapshot(SetIdx set) const
{
    std::vector<std::uint64_t> out;
    out.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(rrpvs_[idx(set, w)]);
    return out;
}

std::vector<WayIdx>
SrripPolicy::preferredVictims(SetIdx set)
{
    // The candidate class is exactly the max-RRPV ways after aging, in
    // way order: the prefix rank()'s stable sort puts first.
    const std::uint8_t *row = age(set);
    std::vector<WayIdx> candidates;
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        if (row[w.get()] == kMaxRrpv)
            candidates.push_back(w);
    return candidates;
}

std::uint8_t *
SrripPolicy::age(SetIdx set)
{
    auto *row = &rrpvs_[idx(set, WayIdx{0})];
    // Age the set until at least one way is a distant re-reference.
    auto maxIt = std::max_element(row, row + ways_);
    if (*maxIt < kMaxRrpv) {
        const std::uint8_t delta =
            static_cast<std::uint8_t>(kMaxRrpv - *maxIt);
        for (std::size_t w = 0; w < ways_; ++w)
            row[w] = static_cast<std::uint8_t>(row[w] + delta);
    }
    return row;
}

WayIdx
SrripPolicy::victim(SetIdx set)
{
    const std::uint8_t *row = age(set);
    for (std::size_t w = 0; w < ways_; ++w)
        if (row[w] == kMaxRrpv)
            return WayIdx{w};
    return WayIdx{0}; // unreachable: age() leaves a way at kMaxRrpv
}

std::vector<WayIdx>
SrripPolicy::rank(SetIdx set)
{
    const std::uint8_t *row = age(set);
    std::vector<WayIdx> order;
    order.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        order.push_back(w);
    std::stable_sort(order.begin(), order.end(),
                     [&](WayIdx a, WayIdx b) {
                         return row[a.get()] > row[b.get()];
                     });
    return order;
}

} // namespace bvc
