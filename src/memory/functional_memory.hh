/**
 * @file
 * Sparse functional memory holding the actual bytes of every touched
 * cache line. It is the single source of data truth in the model: stores
 * update it immediately, and the compressed LLC reads line contents from
 * it when computing compressed sizes on fills and writebacks. Lines are
 * materialized lazily from a workload-specific data pattern, which is
 * how the synthetic traces control compressibility.
 *
 * Storage is laid out for the per-access path. Lines live in an arena
 * of fixed-size chunks that never move, so a new line costs no
 * allocation of its own and line() pointers stay valid for the memory's
 * lifetime. A flat open-addressing index finds them: each 8-byte slot
 * packs a line's arena index with 32 bits of its address hash, so one
 * linear probe sequence answers a lookup and reads the arena only for
 * the line it returns. The index doubles when half full and is rebuilt
 * from the arena (every arena line records its address), so the old
 * index is freed before the new one is allocated. Per touched line that
 * is 72 arena bytes (64 of content, 8 of address) plus 16-32 index
 * bytes, including while the index grows, where a node-based hash map
 * pays a 96-byte malloc chunk plus at least 8 bytes of bucket. Nothing
 * is allocated before the first touch.
 *
 * Every large block is 64 KiB, arena chunk and index segment alike, so
 * memory freed by one (a grown-out index, a finished simulation) is
 * reused exactly by the next. A monolithic index of doubling size
 * leaves holes the arena cannot fill, which raise the peak resident
 * memory of every later simulation in the same process.
 */

#ifndef BVC_MEMORY_FUNCTIONAL_MEMORY_HH_
#define BVC_MEMORY_FUNCTIONAL_MEMORY_HH_

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace bvc
{

/** Byte-accurate sparse memory with lazy pattern-based initialization. */
class FunctionalMemory
{
  public:
    using LineInitFn = std::function<void(Addr, std::uint8_t *)>;

    /**
     * @param init fills a 64B buffer with the initial content of a
     *             block address; defaults to all-zero memory
     */
    explicit FunctionalMemory(LineInitFn init = nullptr)
        : init_(std::move(init))
    {
    }

    /** Current content of the line containing `blk` (materializes it). */
    const std::uint8_t *
    line(Addr blk)
    {
        return lineMutable(blockAddr(blk));
    }

    /** Store `value` (8 bytes, little-endian) at 8-byte-aligned `addr`. */
    void
    store64(Addr addr, std::uint64_t value)
    {
        std::uint8_t *data = lineMutable(blockAddr(addr));
        const unsigned offset = blockOffset(addr) & ~7u;
        std::memcpy(data + offset, &value, 8);
    }

    /** Load 8 bytes from 8-byte-aligned `addr`. */
    std::uint64_t
    load64(Addr addr)
    {
        const std::uint8_t *data = line(addr);
        const unsigned offset = blockOffset(addr) & ~7u;
        std::uint64_t value = 0;
        std::memcpy(&value, data + offset, 8);
        return value;
    }

    /** Number of materialized lines (footprint accounting). */
    std::size_t touchedLines() const { return count_; }

  private:
    using LineBytes = std::array<std::uint8_t, kLineBytes>;

    /** 1024 lines per arena chunk: 64 KiB of bytes, 8 KiB of addresses. */
    static constexpr unsigned kChunkShift = 10;
    static constexpr std::uint64_t kChunkLines = std::uint64_t{1}
                                                 << kChunkShift;
    /** Index slots per segment: 64 KiB, the size of a chunk's bytes. */
    static constexpr unsigned kSegmentShift = 13;
    static constexpr std::size_t kSegmentSlots = std::size_t{1}
                                                 << kSegmentShift;
    /** Index slots allocated at the first touch. */
    static constexpr std::size_t kInitialSlots = 1024;
    /** Slot bits holding arena index + 1 (0 marks an empty slot). */
    static constexpr std::uint64_t kIndexBits = 0xffffffffULL;

    /** splitmix64's finalizer over the block number. */
    static std::uint64_t
    hashBlock(Addr blk)
    {
        std::uint64_t x = blk >> kLineShift;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    LineBytes &
    bytesAt(std::uint64_t line)
    {
        return bytes_[line >> kChunkShift][line & (kChunkLines - 1)];
    }

    Addr &
    blkAt(std::uint64_t line)
    {
        return blks_[line >> kChunkShift][line & (kChunkLines - 1)];
    }

    std::uint64_t &
    slotAt(std::size_t s)
    {
        return segments_[s >> kSegmentShift][s & (kSegmentSlots - 1)];
    }

    std::uint8_t *
    lineMutable(Addr blk)
    {
        if (count_ >= growAt_)
            grow();
        const std::uint64_t hash = hashBlock(blk);
        const std::uint64_t tag = hash & ~kIndexBits;
        std::size_t s = hash & mask_;
        for (; slotAt(s) != 0; s = (s + 1) & mask_) {
            const std::uint64_t slot = slotAt(s);
            if ((slot & ~kIndexBits) == tag &&
                blkAt((slot & kIndexBits) - 1) == blk)
                return bytesAt((slot & kIndexBits) - 1).data();
        }

        // Miss: materialize into the next arena line, claim slot s.
        panicIf(count_ == kIndexBits,
                "FunctionalMemory: more lines than the index can name");
        if ((count_ & (kChunkLines - 1)) == 0) {
            bytes_.push_back(
                std::make_unique_for_overwrite<LineBytes[]>(kChunkLines));
            blks_.push_back(
                std::make_unique_for_overwrite<Addr[]>(kChunkLines));
        }
        blkAt(count_) = blk;
        LineBytes &fresh = bytesAt(count_);
        if (init_)
            init_(blk, fresh.data());
        else
            fresh.fill(0);
        slotAt(s) = tag | (count_ + 1);
        ++count_;
        return fresh.data();
    }

    /**
     * Double the index (or create it) and re-insert every line. The
     * old segments go first: the arena's addresses are enough to
     * rebuild from, and a freed 64 KiB segment is exactly the block the
     * next arena chunk asks for, so growth leaves no heap holes behind.
     */
    void
    grow()
    {
        const std::size_t slots =
            segments_.empty() ? kInitialSlots : 2 * (mask_ + 1);
        const std::size_t perSegment = std::min(slots, kSegmentSlots);
        segments_.clear();
        for (std::size_t s = 0; s < slots; s += perSegment) // all empty
            segments_.push_back(
                std::make_unique<std::uint64_t[]>(perSegment));
        mask_ = slots - 1;
        growAt_ = slots / 2;
        for (std::uint64_t i = 0; i < count_; ++i) {
            const std::uint64_t hash = hashBlock(blkAt(i));
            std::size_t s = hash & mask_;
            while (slotAt(s) != 0)
                s = (s + 1) & mask_;
            slotAt(s) = (hash & ~kIndexBits) | (i + 1);
        }
    }

    LineInitFn init_;
    /** The line arena: chunk c holds lines [c << kChunkShift, ...). */
    std::vector<std::unique_ptr<LineBytes[]>> bytes_;
    std::vector<std::unique_ptr<Addr[]>> blks_; //!< each line's address
    /** The index, in segments of at most kSegmentSlots slots. */
    std::vector<std::unique_ptr<std::uint64_t[]>> segments_;
    std::size_t mask_ = 0;   //!< index slots - 1
    std::size_t growAt_ = 0; //!< line count that triggers grow()
    std::uint64_t count_ = 0;
};

} // namespace bvc

#endif // BVC_MEMORY_FUNCTIONAL_MEMORY_HH_
