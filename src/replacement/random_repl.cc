#include "replacement/random_repl.hh"

#include <utility>

namespace bvc
{

RandomPolicy::RandomPolicy(std::size_t sets, std::size_t ways,
                           std::uint64_t seed)
    : ReplacementPolicy(sets, ways),
      rng_(seed),
      shuffle_(ways)
{
}

std::vector<WayIdx>
RandomPolicy::rank(SetIdx)
{
    std::vector<WayIdx> order;
    order.reserve(ways_);
    for (const WayIdx w : indexRange<WayIdx>(ways_))
        order.push_back(w);
    // Fisher-Yates shuffle driven by the deterministic PRNG.
    for (std::size_t i = ways_; i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng_.range(i));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

WayIdx
RandomPolicy::victim(SetIdx)
{
    // The same Fisher-Yates draws as rank(), in a preallocated buffer.
    std::vector<std::size_t> &order = shuffle_;
    for (std::size_t w = 0; w < ways_; ++w)
        order[w] = w;
    for (std::size_t i = ways_; i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng_.range(i));
        std::swap(order[i - 1], order[j]);
    }
    return WayIdx{order[0]};
}

std::vector<std::uint64_t>
RandomPolicy::stateSnapshot(SetIdx) const
{
    // All decision state is the PRNG stream position, which is global.
    return {rng_.stateWord(0), rng_.stateWord(1), rng_.stateWord(2),
            rng_.stateWord(3)};
}

} // namespace bvc
