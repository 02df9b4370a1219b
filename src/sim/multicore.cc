#include "sim/multicore.hh"

#include <algorithm>

#include "tracefile/file_trace_source.hh"
#include "util/logging.hh"

namespace bvc
{

double
MultiRunResult::weightedSpeedup(const MultiRunResult &base) const
{
    if (ipc.size() != base.ipc.size())
        panic("weightedSpeedup: core-count mismatch (" +
              std::to_string(ipc.size()) + " vs " +
              std::to_string(base.ipc.size()) +
              " threads); compare runs of the same mix");
    double sum = 0.0;
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        panicIf(base.ipc[i] <= 0.0, "weightedSpeedup: zero baseline IPC");
        sum += ipc[i] / base.ipc[i];
    }
    return sum / static_cast<double>(ipc.size());
}

MultiCoreSystem::MultiCoreSystem(const SystemConfig &cfg,
                                 std::vector<TraceParams> traces,
                                 const MultiCoreConfig &mc)
    : cfg_(cfg),
      mc_(mc),
      compressor_(makeCompressor(cfg.compressor)),
      dram_(cfg.dramTiming, cfg.dramGeometry)
{
    const std::size_t n = traces.size();
    panicIf(n == 0, "MultiCoreSystem: at least one trace required");
    cfg_.hier.llcInclusive = cfg.llcInclusive;
    llc_ = makeLlc(cfg, *compressor_);
    if (mc_.coherence != CoherenceKind::None)
        directory_ =
            std::make_unique<CoherenceDirectory>(mc_.coherence, n);

    traces_.resize(n);
    blockReaders_.resize(n);
    mems_.resize(n);
    hiers_.reserve(n);
    cores_.reserve(n);
    done_.assign(n, 0);

    for (std::size_t i = 0; i < n; ++i) {
        TraceParams params = traces[i];
        // Disjoint 4TB address-space slices per thread: the threads
        // contend for LLC sets but never share lines. Shared-space
        // mode leaves the addresses alone — lines are genuinely shared
        // and the coherence directory arbitrates them.
        if (!mc_.sharedAddressSpace)
            params.addressOffset = static_cast<Addr>(i + 1) << 42;
        // loopReplay: a finite file trace must keep running after its
        // last record so early finishers keep contending (Section V).
        OpenedTrace opened = openTrace(params, /*loopReplay=*/true);
        traces_[i] = std::move(opened.source);
        blockReaders_[i].bind(*traces_[i]);
        // One functional memory per disjoint slice; a single one
        // (core 0's data pattern) when the address space is shared.
        if (!mc_.sharedAddressSpace || i == 0) {
            mems_[i] = std::make_unique<FunctionalMemory>(
                [pattern = opened.pattern](Addr blk,
                                           std::uint8_t *out) {
                    pattern.fillLine(blk, out);
                });
        }
        FunctionalMemory &mem =
            mc_.sharedAddressSpace ? *mems_[0] : *mems_[i];
        hiers_.push_back(std::make_unique<Hierarchy>(cfg_.hier, *llc_,
                                                     dram_, mem));
        cores_.push_back(
            std::make_unique<OooCore>(cfg.core, *hiers_[i]));
    }

    // LLC back-invalidations must reach the private caches: every
    // core's (any hierarchy may hold an inclusive copy), narrowed to
    // the directory's sticky sharer superset when one exists. The
    // fan-out returns dirty-above once per line, never per hierarchy —
    // handleLlcResult turns it into at most one memory write
    // (pinned by MulticoreTest.BackInvalidationWritesBackOncePerLine).
    for (std::size_t i = 0; i < n; ++i) {
        hiers_[i]->setBackInvalidateFn([this](Addr blk) {
            bool dirty = false;
            if (directory_) {
                const std::uint64_t mask =
                    directory_->onLlcEviction(blk);
                for (std::size_t j = 0; j < hiers_.size(); ++j)
                    if ((mask >> j) & 1)
                        dirty = hiers_[j]->invalidateUpper(blk) ||
                            dirty;
                return dirty;
            }
            for (auto &hier : hiers_)
                dirty = hier->invalidateUpper(blk) || dirty;
            return dirty;
        });
    }

    if (directory_) {
        for (std::size_t i = 0; i < n; ++i) {
            hiers_[i]->setCoherenceTouchFn(
                [this, i](Addr blk, bool isWrite, Cycle cycle) {
                    const CoherenceAction action = isWrite
                        ? directory_->onWrite(CoreId{i}, blk)
                        : directory_->onRead(CoreId{i}, blk);
                    applyCoherenceAction(action, blk, cycle);
                });
        }
    }
}

MultiCoreSystem::MultiCoreSystem(
    const SystemConfig &cfg,
    const std::array<TraceParams, kThreads> &traces)
    : MultiCoreSystem(cfg, std::vector<TraceParams>(traces.begin(),
                                                    traces.end()))
{
}

void
MultiCoreSystem::flushToLlc(std::size_t i, Addr blk, Cycle cycle)
{
    FunctionalMemory &mem =
        mc_.sharedAddressSpace ? *mems_[0] : *mems_[i];
    // One writeback access drains the dirty upper-level data into the
    // shared LLC (one writeback per line: the LLC copy turns dirty and
    // reaches memory on its own eventual eviction).
    const LlcResult result =
        llc_->access(blk, AccessType::Writeback, mem.line(blk));
    panicIf(cfg_.llcInclusive && !result.hit,
            "coherence flush missed the inclusive LLC");
    hiers_[i]->handleLlcResult(result, cycle);
}

void
MultiCoreSystem::applyCoherenceAction(const CoherenceAction &action,
                                      Addr blk, Cycle cycle)
{
    // The sticky sharer superset may name cores that silently dropped
    // the block; downgradeUpper/invalidateUpper are no-ops there.
    for (std::size_t j = 0; j < hiers_.size(); ++j) {
        if ((action.downgrade >> j) & 1) {
            if (hiers_[j]->downgradeUpper(blk))
                flushToLlc(j, blk, cycle);
        }
        if ((action.invalidate >> j) & 1) {
            if (hiers_[j]->invalidateUpper(blk))
                flushToLlc(j, blk, cycle);
        }
    }
}

void
MultiCoreSystem::snoopInvalidate(Addr blk)
{
    Cycle now = 0;
    for (const auto &core : cores_)
        now = std::max(now, core->currentCycle());
    const LlcResult result = llc_->coherenceInvalidate(blk);
    // Route the side effects (memory writeback of a dirty copy,
    // back-invalidation fan-out to the private caches) through the
    // shared handler; the fan-out also retires the directory entry.
    hiers_[0]->handleLlcResult(result, now);
    if (!result.backInvalidations.empty())
        return;
    // The LLC held no baseline copy of the block. With an inclusive
    // LLC no private copies exist either, but the sticky directory
    // superset (and the non-inclusive Base-Victim variant) may still
    // track stale holders; drop them too.
    bool dirty = false;
    if (directory_) {
        const std::uint64_t mask = directory_->onLlcEviction(blk);
        for (std::size_t j = 0; j < hiers_.size(); ++j)
            if ((mask >> j) & 1)
                dirty = hiers_[j]->invalidateUpper(blk) || dirty;
    } else {
        for (auto &hier : hiers_)
            dirty = hier->invalidateUpper(blk) || dirty;
    }
    if (dirty)
        dram_.write(blk, now);
}

CoreId
MultiCoreSystem::stepOne()
{
    // Advance the core whose local clock lags: keeps the interleaving
    // of shared-LLC accesses approximately time-ordered.
    const std::size_t n = cores_.size();
    std::size_t pick = n;
    Cycle best = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (done_[i])
            continue;
        const Cycle clock = cores_[i]->currentCycle();
        if (pick == n || clock < best) {
            pick = i;
            best = clock;
        }
    }
    panicIf(pick == n, "stepOne: all threads done");
    TraceRecord record;
    const bool more = blockReaders_[pick].next(record);
    // Generators never exhaust and file traces loop (openTrace passes
    // loopReplay), so the only way to run dry is an empty trace file.
    panicIf(!more, "multicore trace ran dry (empty trace file?)");
    cores_[pick]->stepRecord(record);
    return CoreId{pick};
}

void
MultiCoreSystem::runAllTo(std::uint64_t target)
{
    std::fill(done_.begin(), done_.end(), std::uint8_t{0});
    while (true) {
        bool all = true;
        for (std::size_t i = 0; i < cores_.size(); ++i) {
            done_[i] = cores_[i]->retired() >= target ? 1 : 0;
            all = all && done_[i] != 0;
        }
        if (all)
            break;
        stepOne();
    }
    std::fill(done_.begin(), done_.end(), std::uint8_t{0});
}

MultiRunResult
MultiCoreSystem::run(std::uint64_t warmup, std::uint64_t measure)
{
    const std::size_t n = cores_.size();
    runAllTo(warmup);

    llc_->resetStats();
    dram_.stats().resetAll();
    for (std::size_t i = 0; i < n; ++i) {
        hiers_[i]->stats().resetAll();
        // Mirror System::run: per-core counters (loads, stores,
        // flushes...) must also restart at the measurement boundary,
        // or warmup traffic leaks into every per-core group.
        cores_[i]->stats().resetAll();
        cores_[i]->beginMeasurement();
    }
    if (directory_)
        directory_->stats().resetAll();

    MultiRunResult result;
    result.ipc.assign(n, 0.0);
    result.instructions.assign(n, 0);
    std::vector<std::uint8_t> snapped(n, 0);
    std::size_t remaining = n;
    const auto snapIfCrossed = [&](std::size_t i) {
        if (snapped[i] || cores_[i]->measuredInstructions() < measure)
            return;
        const CoreResult cr = cores_[i]->result();
        result.ipc[i] = cr.ipc;
        result.instructions[i] = cr.instructions;
        snapped[i] = 1;
        --remaining;
    };
    // Run until every thread crossed its measured window; early
    // finishers keep executing (contention), their IPC snapshotted at
    // the crossing point. Only a core that steps can cross, so after
    // the first step (which checks every core, as a zero-length window
    // needs) each step checks just the core it advanced.
    stepOne();
    for (std::size_t i = 0; i < n; ++i)
        snapIfCrossed(i);
    while (remaining > 0)
        snapIfCrossed(stepOne().get());

    result.dramReads = dram_.stats().get("reads");
    result.dramWrites = dram_.stats().get("writes");
    result.llcDemandHits = llc_->stats().get("demand_hits");
    result.llcDemandMisses = llc_->stats().get("demand_misses");
    result.llcVictimHits = llc_->stats().get("victim_hits");
    return result;
}

} // namespace bvc
