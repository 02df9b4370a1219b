#include <algorithm>
#include <cstdio>

#include "bvbench.hh"
#include "runner/report.hh"
#include "util/logging.hh"

namespace bvbench
{

namespace
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

} // namespace

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Trace: return "trace";
      case Layer::Core: return "core";
      case Layer::Llc: return "llc";
    }
    panic("layerName: unknown layer");
}

SpanRecorder::SpanRecorder(bool keepSpans) : keep_(keepSpans)
{
    if (keep_)
        kept_.reserve(kKeptSpans);
}

void
SpanRecorder::begin(Layer layer)
{
    panicIf(depth_ == stack_.size(), "SpanRecorder: spans nest too deep");
    stack_[depth_++] = Open{layer, nextId_++, nowNs(), 0};
}

void
SpanRecorder::end()
{
    const std::int64_t endNs = nowNs();
    const Open &open = stack_[--depth_];
    const std::int64_t duration = endNs - open.startNs;
    const auto layer = static_cast<std::size_t>(open.layer);
    selfNs_[layer] += duration - open.childNs;
    ++count_[layer];
    std::int64_t parent = -1;
    if (depth_ > 0) {
        stack_[depth_ - 1].childNs += duration;
        parent = stack_[depth_ - 1].id;
    }
    if (keep_ && kept_.size() < kKeptSpans)
        kept_.push_back(Kept{open.id, parent, open.layer, open.startNs,
                             endNs});
}

double
SpanRecorder::selfSeconds(Layer layer) const
{
    return static_cast<double>(selfNs_[static_cast<std::size_t>(layer)]) *
        1e-9;
}

std::uint64_t
SpanRecorder::count(Layer layer) const
{
    return count_[static_cast<std::size_t>(layer)];
}

void
SpanRecorder::writeCsv(const std::string &path) const
{
    const std::int64_t origin = kept_.empty() ? 0 : kept_.front().startNs;
    std::string csv = "id,parent,layer,start_ns,end_ns\n";
    for (const Kept &k : kept_) {
        char line[128];
        std::snprintf(line, sizeof(line), "%u,%lld,%s,%lld,%lld\n",
                      k.id, static_cast<long long>(k.parent),
                      layerName(k.layer),
                      static_cast<long long>(k.startNs - origin),
                      static_cast<long long>(k.endNs - origin));
        csv += line;
    }
    writeFile(path, csv);
}

TappedLlc::TappedLlc(std::unique_ptr<Llc> inner, Taps taps)
    : Llc("tap"), inner_(std::move(inner)), taps_(taps)
{
}

LlcResult
TappedLlc::access(Addr blk, AccessType type, const std::uint8_t *data)
{
    LlcResult result;
    {
        const Span span(taps_.spans, Layer::Llc);
        result = inner_->access(blk, type, data);
    }
    if (taps_.capture)
        record(blk, static_cast<std::uint8_t>(type), data, result);
    return result;
}

// Tag-only calls are not spanned: they outnumber accesses about three
// to one on the LLC-bound workloads, and two clock reads per call would
// cost more than the probe itself. Their time counts toward `core`.

bool
TappedLlc::probe(Addr blk) const
{
    return inner_->probe(blk);
}

bool
TappedLlc::probeBase(Addr blk) const
{
    return inner_->probeBase(blk);
}

void
TappedLlc::downgradeHint(Addr blk)
{
    inner_->downgradeHint(blk);
}

LlcResult
TappedLlc::coherenceInvalidate(Addr blk)
{
    LlcResult result;
    {
        const Span span(taps_.spans, Layer::Llc);
        result = inner_->coherenceInvalidate(blk);
    }
    if (taps_.capture)
        record(blk, kInvalidateOp, nullptr, result);
    return result;
}

void
TappedLlc::record(Addr blk, std::uint8_t kind, const std::uint8_t *data,
                  const LlcResult &result)
{
    Capture &cap = *taps_.capture;
    if (cap.llc.size() >= cap.maxOps)
        return;
    LlcOp &op = cap.llc.emplace_back();
    op.blk = blk;
    op.cycle = clock_ ? clock_->currentCycle() : 0;
    op.kind = kind;
    op.hit = result.hit;
    op.memWritebacks =
        static_cast<std::uint8_t>(result.memWritebacks.size());
    op.backInvalidations =
        static_cast<std::uint8_t>(result.backInvalidations.size());
    for (std::size_t i = 0;
         i < op.writebacks.size() && i < result.memWritebacks.size(); ++i)
        op.writebacks[i] = result.memWritebacks[i];
    if (data)
        std::copy(data, data + kLineBytes, op.data.begin());
}

// --- ReplicaSystem: mirrors System's constructor and run() ---

ReplicaSystem::ReplicaSystem(const SystemConfig &cfg,
                             const TraceParams &trace, Taps taps)
    : cfg_(cfg),
      taps_(taps),
      compressor_(makeCompressor(cfg.compressor)),
      dram_(cfg.dramTiming, cfg.dramGeometry),
      trace_(openTrace(trace))
{
    cfg_.hier.llcInclusive = cfg.llcInclusive;
    llc_ = std::make_unique<TappedLlc>(makeLlc(cfg, *compressor_), taps);
    mem_ = FunctionalMemory(
        [pattern = trace_.pattern](Addr blk, std::uint8_t *out) {
            pattern.fillLine(blk, out);
        });
    hier_ = std::make_unique<Hierarchy>(cfg_.hier, *llc_, dram_, mem_);
    core_ = std::make_unique<OooCore>(cfg.core, *hier_);
    llc_->setClock(core_.get());
}

void
ReplicaSystem::step(std::uint64_t count)
{
    while (count > 0) {
        const Span batch(taps_.spans, Layer::Core);
        const std::uint64_t n =
            std::min<std::uint64_t>(count, block_.size());
        for (std::uint64_t i = 0; i < n; ++i) {
            if (cursor_ >= filled_) {
                const Span supply(taps_.spans, Layer::Trace);
                filled_ = trace_.source->nextBlock(block_.data(),
                                                   block_.size());
                cursor_ = 0;
                // Generators never exhaust; the suite has no file traces.
                panicIf(filled_ == 0, "replica: trace ran dry");
            }
            const TraceRecord &record = block_[cursor_++];
            if (taps_.capture && record.kind != InstrKind::NonMem)
                taps_.capture->mem.push_back(
                    MemRef{blockAddr(record.addr), 0,
                           record.kind == InstrKind::Store});
            core_->stepRecord(record);
        }
        count -= n;
    }
}

RunResult
ReplicaSystem::run(std::uint64_t warmup, std::uint64_t measure)
{
    step(warmup);
    if (taps_.capture)
        taps_.capture->warmOps = taps_.capture->llc.size();

    llc_->resetStats();
    dram_.stats().resetAll();
    hier_->stats().resetAll();
    core_->stats().resetAll();
    core_->beginMeasurement();

    step(measure);

    // System::snapshot(), field for field.
    RunResult out;
    const CoreResult cr = core_->result();
    out.ipc = cr.ipc;
    out.instructions = cr.instructions;
    out.cycles = cr.cycles;
    const StatGroup &dram = dram_.stats();
    out.dramReads = dram.get("reads");
    out.dramWrites = dram.get("writes");
    out.dramDemandReads = hier_->stats().get("dram_demand_reads");
    const StatGroup &llc = llc_->stats();
    out.llcDemandAccesses = llc.get("demand_accesses");
    out.llcDemandHits = llc.get("demand_hits");
    out.llcDemandMisses = llc.get("demand_misses");
    out.llcVictimHits = llc.get("victim_hits");
    out.llcAccesses = llc.get("accesses");
    out.backInvalidations = llc.get("back_invalidations");
    return out;
}

// --- ReplicaMultiCore: mirrors MultiCoreSystem (shared address space) ---

ReplicaMultiCore::ReplicaMultiCore(const SystemConfig &cfg,
                                   const std::vector<TraceParams> &traces,
                                   const MultiCoreConfig &mc, Taps taps)
    : cfg_(cfg),
      mc_(mc),
      taps_(taps),
      compressor_(makeCompressor(cfg.compressor)),
      dram_(cfg.dramTiming, cfg.dramGeometry)
{
    if (!mc.sharedAddressSpace)
        fatal("ReplicaMultiCore models the shared address space only");
    const std::size_t n = traces.size();
    panicIf(n == 0, "ReplicaMultiCore: at least one trace required");
    cfg_.hier.llcInclusive = cfg.llcInclusive;
    llc_ = std::make_unique<TappedLlc>(makeLlc(cfg, *compressor_), taps);
    if (mc_.coherence != CoherenceKind::None)
        directory_ =
            std::make_unique<CoherenceDirectory>(mc_.coherence, n);

    feeds_.reserve(n);
    for (const TraceParams &params : traces)
        feeds_.push_back(Feed{openTrace(params, /*loopReplay=*/true)});
    // One functional memory with core 0's data pattern.
    mem_ = FunctionalMemory(
        [pattern = feeds_.front().trace.pattern](Addr blk,
                                                 std::uint8_t *out) {
            pattern.fillLine(blk, out);
        });
    done_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        hiers_.push_back(
            std::make_unique<Hierarchy>(cfg_.hier, *llc_, dram_, mem_));
        cores_.push_back(std::make_unique<OooCore>(cfg.core, *hiers_[i]));
    }

    for (std::size_t i = 0; i < n; ++i) {
        hiers_[i]->setBackInvalidateFn([this](Addr blk) {
            bool dirty = false;
            if (directory_) {
                const std::uint64_t mask = directory_->onLlcEviction(blk);
                for (std::size_t j = 0; j < hiers_.size(); ++j)
                    if ((mask >> j) & 1)
                        dirty = hiers_[j]->invalidateUpper(blk) || dirty;
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

void
ReplicaMultiCore::flushToLlc(std::size_t i, Addr blk, Cycle cycle)
{
    const LlcResult result =
        llc_->access(blk, AccessType::Writeback, mem_.line(blk));
    panicIf(cfg_.llcInclusive && !result.hit,
            "coherence flush missed the inclusive LLC");
    hiers_[i]->handleLlcResult(result, cycle);
}

void
ReplicaMultiCore::applyCoherenceAction(const CoherenceAction &action,
                                       Addr blk, Cycle cycle)
{
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
ReplicaMultiCore::stepOne()
{
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
    Feed &feed = feeds_[pick];
    if (feed.cursor >= feed.filled) {
        const Span supply(taps_.spans, Layer::Trace);
        feed.filled = feed.trace.source->nextBlock(feed.block.data(),
                                                   feed.block.size());
        feed.cursor = 0;
        panicIf(feed.filled == 0, "replica: trace ran dry");
    }
    const TraceRecord &record = feed.block[feed.cursor++];
    if (taps_.capture && record.kind != InstrKind::NonMem)
        taps_.capture->mem.push_back(
            MemRef{blockAddr(record.addr),
                   static_cast<std::uint32_t>(pick),
                   record.kind == InstrKind::Store});
    llc_->setClock(cores_[pick].get());
    cores_[pick]->stepRecord(record);
}

void
ReplicaMultiCore::runAllTo(std::uint64_t target)
{
    std::fill(done_.begin(), done_.end(), std::uint8_t{0});
    bool all = false;
    while (!all) {
        const Span batch(taps_.spans, Layer::Core);
        for (std::size_t k = 0; k < TraceBlockReader::kBlockRecords; ++k) {
            all = true;
            for (std::size_t i = 0; i < cores_.size(); ++i) {
                done_[i] = cores_[i]->retired() >= target ? 1 : 0;
                all = all && done_[i] != 0;
            }
            if (all)
                break;
            stepOne();
        }
    }
    std::fill(done_.begin(), done_.end(), std::uint8_t{0});
}

MultiRunResult
ReplicaMultiCore::run(std::uint64_t warmup, std::uint64_t measure)
{
    const std::size_t n = cores_.size();
    runAllTo(warmup);
    if (taps_.capture)
        taps_.capture->warmOps = taps_.capture->llc.size();

    llc_->resetStats();
    dram_.stats().resetAll();
    for (std::size_t i = 0; i < n; ++i) {
        hiers_[i]->stats().resetAll();
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
    while (remaining > 0) {
        const Span batch(taps_.spans, Layer::Core);
        for (std::size_t k = 0;
             k < TraceBlockReader::kBlockRecords && remaining > 0; ++k) {
            stepOne();
            for (std::size_t i = 0; i < n; ++i) {
                if (snapped[i])
                    continue;
                const CoreResult cr = cores_[i]->result();
                if (cr.instructions >= measure) {
                    result.ipc[i] = cr.ipc;
                    result.instructions[i] = cr.instructions;
                    snapped[i] = 1;
                    --remaining;
                }
            }
        }
    }

    result.dramReads = dram_.stats().get("reads");
    result.dramWrites = dram_.stats().get("writes");
    result.llcDemandHits = llc_->stats().get("demand_hits");
    result.llcDemandMisses = llc_->stats().get("demand_misses");
    result.llcVictimHits = llc_->stats().get("victim_hits");
    return result;
}

std::string
fnv1aHex(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

Counts &
Counts::operator+=(const Counts &other)
{
    instructions += other.instructions;
    cycles += other.cycles;
    llcAccesses += other.llcAccesses;
    demandAccesses += other.demandAccesses;
    demandHits += other.demandHits;
    victimHits += other.victimHits;
    dramRowHits += other.dramRowHits;
    dramRowAccesses += other.dramRowAccesses;
    touchedLines += other.touchedLines;
    l1dAccesses += other.l1dAccesses;
    l1dHits += other.l1dHits;
    l2Accesses += other.l2Accesses;
    l2Hits += other.l2Hits;
    return *this;
}

} // namespace bvbench
