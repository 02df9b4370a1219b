/**
 * @file
 * The uncompressed baseline LLC every experiment normalizes against: the
 * SetAssocLlc skeleton plus access() and an evictions counter. Its fill
 * rule (TagArray::fillWay: invalid way first, then the policy's victim)
 * and hit rule (SetAssocLlc::hitWay) are the same two functions the
 * Baseline Cache of BaseVictimLlc calls. The paper's central guarantee
 * rests on that: the base content of the compressed cache mirrors the
 * uncompressed cache, which the shadow checker verifies against this
 * model in lockstep.
 */

#ifndef BVC_CORE_UNCOMPRESSED_LLC_HH_
#define BVC_CORE_UNCOMPRESSED_LLC_HH_

#include "core/set_assoc_llc.hh"

namespace bvc
{

/** Plain set-associative inclusive LLC. */
class UncompressedLlc : public SetAssocLlc
{
  public:
    /**
     * @param sizeBytes capacity (sets derived as size/64/ways)
     * @param ways      associativity
     * @param repl      baseline replacement policy kind
     */
    UncompressedLlc(std::size_t sizeBytes, std::size_t ways,
                    ReplacementKind repl);

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] std::string name() const override
    {
        return "Uncompressed";
    }
    [[nodiscard]] bool mirrorsBaseline() const override { return true; }

  private:
    Counter &evictions_; //!< valid lines replaced by a fill
};

} // namespace bvc

#endif // BVC_CORE_UNCOMPRESSED_LLC_HH_
