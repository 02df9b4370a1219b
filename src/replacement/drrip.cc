#include "replacement/drrip.hh"

#include <algorithm>

namespace bvc
{

DrripPolicy::DrripPolicy(std::size_t sets, std::size_t ways)
    : ReplacementPolicy(sets, ways),
      rrpvs_(sets * ways, kMaxRrpv)
{
}

unsigned
DrripPolicy::rrpv(SetIdx set, WayIdx way) const
{
    return rrpvs_[idx(set, way)];
}

DrripPolicy::SetRole
DrripPolicy::role(SetIdx set) const
{
    const auto slot = set.get() % kDuelPeriod;
    if (slot == 0)
        return SetRole::LeaderSrrip;
    if (slot == 1)
        return SetRole::LeaderBrrip;
    return SetRole::Follower;
}

bool
DrripPolicy::insertBrrip(SetIdx set)
{
    switch (role(set)) {
      case SetRole::LeaderSrrip:
        return false;
      case SetRole::LeaderBrrip:
        return true;
      case SetRole::Follower:
        return psel_ > 0;
    }
    return false;
}

void
DrripPolicy::onFill(SetIdx set, WayIdx way)
{
    // A fill is a miss: duel the leader sets.
    if (role(set) == SetRole::LeaderSrrip && psel_ < kPselMax)
        ++psel_;
    else if (role(set) == SetRole::LeaderBrrip && psel_ > -kPselMax)
        --psel_;

    unsigned insert = kSrripInsert;
    if (insertBrrip(set)) {
        // BRRIP: mostly distant, occasionally long.
        insert = (++bimodalCounter_ % kBimodalPeriod == 0)
            ? kSrripInsert
            : kMaxRrpv;
    }
    rrpvs_[idx(set, way)] = static_cast<std::uint8_t>(insert);
}

void
DrripPolicy::onHit(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = 0;
}

void
DrripPolicy::onInvalidate(SetIdx set, WayIdx way)
{
    rrpvs_[idx(set, way)] = kMaxRrpv;
}

std::uint8_t *
DrripPolicy::age(SetIdx set)
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
DrripPolicy::victim(SetIdx set)
{
    const std::uint8_t *row = age(set);
    for (std::size_t w = 0; w < ways_; ++w)
        if (row[w] == kMaxRrpv)
            return WayIdx{w};
    return WayIdx{0}; // unreachable: age() leaves a way at kMaxRrpv
}

std::vector<WayIdx>
DrripPolicy::rank(SetIdx set)
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

std::vector<std::uint64_t>
DrripPolicy::stateSnapshot(SetIdx set) const
{
    std::vector<std::uint64_t> out;
    out.reserve(ways_ + 2);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        out.push_back(rrpvs_[idx(set, w)]);
    // Set-dueling state is global and decision-relevant everywhere.
    out.push_back(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(psel_)));
    out.push_back(bimodalCounter_);
    return out;
}

std::vector<WayIdx>
DrripPolicy::preferredVictims(SetIdx set)
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

} // namespace bvc
