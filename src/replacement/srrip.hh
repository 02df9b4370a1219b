/**
 * @file
 * Static Re-Reference Interval Prediction (SRRIP) [Jaleel et al., ISCA
 * 2010], the first advanced Baseline-Cache policy studied in Section
 * VI.B.2. 2-bit re-reference prediction values: insert at "long"
 * (RRPV = 2), promote to "near-immediate" (0) on hit, evict RRPV = 3,
 * aging all lines when no way is at 3.
 */

#ifndef BVC_REPLACEMENT_SRRIP_HH_
#define BVC_REPLACEMENT_SRRIP_HH_

#include "replacement/replacement.hh"

namespace bvc
{

/** SRRIP-HP with 2-bit RRPVs. */
class SrripPolicy : public ReplacementPolicy
{
  public:
    static constexpr unsigned kMaxRrpv = 3;
    static constexpr unsigned kInsertRrpv = 2;

    SrripPolicy(std::size_t sets, std::size_t ways);

    void onFill(SetIdx set, WayIdx way) override;
    void onHit(SetIdx set, WayIdx way) override;
    void onInvalidate(SetIdx set, WayIdx way) override;
    [[nodiscard]] std::vector<WayIdx> rank(SetIdx set) override;
    [[nodiscard]] WayIdx victim(SetIdx set) override;
    [[nodiscard]] std::vector<WayIdx>
    preferredVictims(SetIdx set) override;
    [[nodiscard]] std::vector<std::uint64_t>
    stateSnapshot(SetIdx set) const override;
    [[nodiscard]] std::string name() const override { return "SRRIP"; }

    /** Raw RRPV; test helper. */
    [[nodiscard]] unsigned rrpv(SetIdx set, WayIdx way) const;

  private:
    /**
     * Raise every RRPV of `set` by the same amount until one way sits
     * at kMaxRrpv; returns the set's RRPV row.
     */
    std::uint8_t *age(SetIdx set);

    std::vector<std::uint8_t> rrpvs_;
};

} // namespace bvc

#endif // BVC_REPLACEMENT_SRRIP_HH_
