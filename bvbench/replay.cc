#include <algorithm>
#include <cstdio>
#include <optional>
#include <unordered_map>

#include "bvbench.hh"
#include "cache/cache.hh"
#include "util/logging.hh"

namespace bvbench
{

namespace
{

/**
 * Median rate of `ops` operations over `reps` calls of `body`, each
 * returning its own timed seconds. The checksum a body folds its
 * results into is printed only if impossible, which keeps the timed
 * work observable to the optimizer.
 */
template <class Body>
double
medianRate(double ops, unsigned reps, Body &&body)
{
    std::vector<double> rates;
    for (unsigned r = 0; r < reps; ++r) {
        std::uint64_t checksum = 0;
        const double seconds = body(checksum);
        if (checksum == 0x5eed5eed5eed5eedULL)
            std::fputs("~\n", stderr);
        rates.push_back(ops / std::max(seconds, 1e-9));
    }
    return median(rates);
}

bool
isAccess(const LlcOp &op)
{
    return op.kind != kInvalidateOp;
}

} // namespace

CaptureRatios
captureRatios(const Capture &capture)
{
    std::unordered_map<Addr, std::array<std::uint8_t, kLineBytes>> last;
    std::uint64_t calls = 0;
    std::uint64_t nonEmpty = 0;
    std::uint64_t same = 0;
    std::uint64_t writebacks = 0;
    for (std::size_t i = 0; i < capture.llc.size(); ++i) {
        const LlcOp &op = capture.llc[i];
        if (!isAccess(op))
            continue;
        auto [it, inserted] = last.try_emplace(op.blk, op.data);
        const bool unchanged = !inserted && it->second == op.data;
        it->second = op.data;
        if (i < capture.warmOps)
            continue;
        ++calls;
        nonEmpty += op.memWritebacks + op.backInvalidations > 0 ? 1 : 0;
        same += unchanged ? 1 : 0;
        writebacks += op.kind ==
                static_cast<std::uint8_t>(AccessType::Writeback)
            ? 1 : 0;
    }
    const double base = calls > 0 ? static_cast<double>(calls) : 1.0;
    return CaptureRatios{static_cast<double>(nonEmpty) / base,
                         static_cast<double>(same) / base,
                         static_cast<double>(writebacks) / base};
}

void
replayLlc(const SystemConfig &cfg, const Capture &capture, unsigned reps,
          ReplayRates &rates)
{
    const std::unique_ptr<Compressor> comp = makeCompressor(cfg.compressor);
    const std::vector<LlcOp> &ops = capture.llc;
    const auto apply = [&](Llc &llc, const LlcOp &op) {
        const LlcResult r = isAccess(op)
            ? llc.access(op.blk, static_cast<AccessType>(op.kind),
                         op.data.data())
            : llc.coherenceInvalidate(op.blk);
        if (r.hit != op.hit)
            rates.llcFaithful = false;
        return r.hit;
    };
    panicIf(ops.size() <= capture.warmOps,
            "replayLlc: the capture holds no post-warmup LLC calls");
    const double timedOps =
        static_cast<double>(ops.size() - capture.warmOps);
    rates.llcAccess = medianRate(timedOps, reps, [&](std::uint64_t &sum) {
        const std::unique_ptr<Llc> llc = makeLlc(cfg, *comp);
        for (std::size_t i = 0; i < capture.warmOps; ++i)
            sum += apply(*llc, ops[i]);
        const Clock::time_point start = Clock::now();
        for (std::size_t i = capture.warmOps; i < ops.size(); ++i)
            sum += apply(*llc, ops[i]);
        return secondsSince(start);
    });
}

void
replayOthers(const SystemConfig &cfg, const Capture &capture,
             const DataPattern &pattern, std::size_t cores, unsigned reps,
             ReplayRates &rates)
{
    const std::vector<LlcOp> &ops = capture.llc;
    const std::size_t warm = capture.warmOps;

    const std::unique_ptr<Compressor> comp = makeCompressor(cfg.compressor);
    double sized = 0.0;
    for (std::size_t i = warm; i < ops.size(); ++i)
        sized += isAccess(ops[i]) ? 1.0 : 0.0;
    rates.compressSegments = medianRate(sized, reps, [&](auto &sum) {
        const Clock::time_point start = Clock::now();
        for (std::size_t i = warm; i < ops.size(); ++i)
            if (isAccess(ops[i]))
                sum += compressedSegmentsFor(*comp, ops[i].data.data())
                           .get();
        return secondsSince(start);
    });

    // A fresh memory each rep: first touches materialize lines from the
    // data pattern, as they do in a simulation.
    rates.funcmemLine = medianRate(
        static_cast<double>(ops.size()), reps, [&](auto &sum) {
            FunctionalMemory mem([&pattern](Addr blk, std::uint8_t *out) {
                pattern.fillLine(blk, out);
            });
            const Clock::time_point start = Clock::now();
            for (const LlcOp &op : ops)
                sum += mem.line(op.blk)[0];
            return secondsSince(start);
        });

    // The DRAM sees LLC read and prefetch misses and LLC writebacks;
    // back-invalidation writebacks from the private levels are not in
    // the capture.
    double requests = 0.0;
    for (std::size_t i = warm; i < ops.size(); ++i) {
        const LlcOp &op = ops[i];
        const auto type = static_cast<AccessType>(op.kind);
        requests += isAccess(op) && !op.hit &&
                (type == AccessType::Read || type == AccessType::Prefetch)
            ? 1.0 : 0.0;
        requests += std::min<double>(op.memWritebacks, 2.0);
    }
    rates.dramRequest = medianRate(requests, reps, [&](auto &sum) {
        Dram dram(cfg.dramTiming, cfg.dramGeometry);
        const Clock::time_point start = Clock::now();
        for (std::size_t i = warm; i < ops.size(); ++i) {
            const LlcOp &op = ops[i];
            const auto type = static_cast<AccessType>(op.kind);
            if (isAccess(op) && !op.hit) {
                if (type == AccessType::Read)
                    sum += dram.read(op.blk, op.cycle);
                else if (type == AccessType::Prefetch)
                    dram.prefetchRead(op.blk, op.cycle);
            }
            for (std::size_t w = 0; w < op.memWritebacks && w < 2; ++w)
                dram.write(op.writebacks[w], op.cycle);
        }
        return secondsSince(start);
    });

    // L1D input: the demand loads and stores (no L1 prefetches). Its
    // misses and dirty evictions form the L2 input; its misses (reads)
    // and stores (writes) form the directory input.
    const HierarchyConfig &h = cfg.hier;
    using Caches = std::vector<std::unique_ptr<Cache>>;
    const auto makeL1ds = [&] {
        Caches caches;
        for (std::size_t c = 0; c < cores; ++c)
            caches.push_back(std::make_unique<Cache>(
                "l1d", h.l1dBytes, h.l1dWays, h.l1Repl, h.l1Latency));
        return caches;
    };
    const auto makeL2s = [&] {
        Caches caches;
        for (std::size_t c = 0; c < cores; ++c)
            caches.push_back(std::make_unique<Cache>(
                "l2", h.l2Bytes, h.l2Ways, h.l2Repl, h.l2Latency));
        return caches;
    };
    std::vector<MemRef> l2Refs;
    std::vector<std::vector<MemRef>> dirPerCore(cores);
    {
        const Caches l1d = makeL1ds();
        for (const MemRef &ref : capture.mem) {
            std::optional<Eviction> evicted;
            const bool hit = l1d[ref.core]->access(ref.blk, ref.write,
                                                   evicted);
            if (!hit)
                l2Refs.push_back(MemRef{ref.blk, ref.core, false});
            if (evicted && evicted->dirty)
                l2Refs.push_back(MemRef{evicted->addr, ref.core, true});
            if (ref.write || !hit)
                dirPerCore[ref.core].push_back(ref);
        }
    }
    const auto replayCaches = [&](const std::vector<MemRef> &refs,
                                  const auto &make) {
        return medianRate(
            static_cast<double>(refs.size()), reps, [&](auto &sum) {
                const Caches caches = make();
                const Clock::time_point start = Clock::now();
                for (const MemRef &ref : refs) {
                    std::optional<Eviction> evicted;
                    sum += caches[ref.core]->access(ref.blk, ref.write,
                                                    evicted);
                }
                return secondsSince(start);
            });
    };
    rates.l1dAccess = replayCaches(capture.mem, makeL1ds);
    rates.l2Access = replayCaches(l2Refs, makeL2s);

    std::vector<MemRef> dirRefs;
    for (std::size_t k = 0;; ++k) {
        bool any = false;
        for (const std::vector<MemRef> &stream : dirPerCore) {
            if (k < stream.size()) {
                dirRefs.push_back(stream[k]);
                any = true;
            }
        }
        if (!any)
            break;
    }
    rates.directoryOp = medianRate(
        static_cast<double>(dirRefs.size()), reps, [&](auto &sum) {
            CoherenceDirectory dir(CoherenceKind::Msi, cores);
            const Clock::time_point start = Clock::now();
            for (const MemRef &ref : dirRefs) {
                const CoherenceAction a = ref.write
                    ? dir.onWrite(CoreId{ref.core}, ref.blk)
                    : dir.onRead(CoreId{ref.core}, ref.blk);
                sum += a.invalidate + a.downgrade;
            }
            return secondsSince(start);
        });
}

double
replayTrace(const std::vector<TraceParams> &traces, std::uint64_t records,
            unsigned reps)
{
    return medianRate(
        static_cast<double>(records), reps, [&](std::uint64_t &sum) {
            std::vector<std::unique_ptr<TraceSource>> sources;
            for (const TraceParams &params : traces)
                sources.push_back(openTrace(params).source);
            std::array<TraceRecord, TraceBlockReader::kBlockRecords> block;
            const Clock::time_point start = Clock::now();
            std::uint64_t pulled = 0;
            for (std::size_t s = 0; pulled < records;
                 s = (s + 1) % sources.size()) {
                const std::size_t n =
                    sources[s]->nextBlock(block.data(), block.size());
                panicIf(n == 0, "replayTrace: trace ran dry");
                pulled += n;
                sum += block[n - 1].addr;
            }
            return secondsSince(start);
        });
}

} // namespace bvbench
