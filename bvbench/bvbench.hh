/**
 * @file
 * Building blocks of the bvbench benchmark. Every piece measures the
 * simulator from outside, through the library's public API:
 *
 *   - SpanRecorder: host-time spans around calls into a layer, with
 *     self time (duration minus nested child spans) aggregated online
 *     and the first kKeptSpans spans kept for a CSV dump;
 *   - TappedLlc: a forwarding Llc that records an `llc` span per access
 *     or coherence invalidation and can capture those calls for replay;
 *   - ReplicaSystem / ReplicaMultiCore: System and MultiCoreSystem
 *     re-assembled from the same public parts, so the tapped LLC can be
 *     inserted and the trace/core loop can be spanned. Their statistics
 *     must be byte-identical to the real classes' (checked every run);
 *   - stream replays that time one layer alone on a captured stream;
 *   - the statistics digest that gates correctness.
 */

#ifndef BVBENCH_BVBENCH_HH_
#define BVBENCH_BVBENCH_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "coherence/coherence.hh"
#include "sim/multicore.hh"
#include "sim/system.hh"
#include "tracefile/file_trace_source.hh"

namespace bvbench
{

using namespace bvc;

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `start`. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Median of `values` (0 for an empty input). */
double median(std::vector<double> values);

/** Layers a span can be attributed to (named after the repo modules). */
enum class Layer : std::uint8_t
{
    Trace, //!< TraceSource::nextBlock
    Core,  //!< a batch of up to 256 OooCore::stepRecord calls
    Llc,   //!< Llc::access or Llc::coherenceInvalidate
};

constexpr std::size_t kLayers = 3;

/** "trace", "core" or "llc". */
const char *layerName(Layer layer);

/**
 * Host-time span recorder for one simulation thread. Spans nest (an
 * `llc` span inside a `core` batch); a span's self time is its duration
 * minus the durations of the spans directly inside it. Aggregation is
 * online, so the recorder's memory is fixed: only the first kKeptSpans
 * spans are stored, in a buffer allocated up front, for writeCsv().
 */
class SpanRecorder
{
  public:
    static constexpr std::size_t kKeptSpans = 65536;

    /** @param keepSpans store the first kKeptSpans spans for writeCsv */
    explicit SpanRecorder(bool keepSpans = false);

    void begin(Layer layer);
    void end();

    /** Summed self time of every span of `layer`, in seconds. */
    [[nodiscard]] double selfSeconds(Layer layer) const;
    /** Number of spans of `layer` recorded. */
    [[nodiscard]] std::uint64_t count(Layer layer) const;

    /** Write the kept spans as CSV; fatal() on I/O failure. */
    void writeCsv(const std::string &path) const;

  private:
    struct Open
    {
        Layer layer = Layer::Core;
        std::uint32_t id = 0;
        std::int64_t startNs = 0;
        std::int64_t childNs = 0; //!< summed duration of nested spans
    };
    struct Kept
    {
        std::uint32_t id = 0;
        std::int64_t parent = -1; //!< id of the enclosing span, or -1
        Layer layer = Layer::Core;
        std::int64_t startNs = 0;
        std::int64_t endNs = 0;
    };

    std::array<Open, 4> stack_{};
    std::size_t depth_ = 0;
    std::uint32_t nextId_ = 0;
    std::array<std::int64_t, kLayers> selfNs_{};
    std::array<std::uint64_t, kLayers> count_{};
    bool keep_;
    std::vector<Kept> kept_;
};

/** RAII span; a null recorder makes it a no-op. */
class Span
{
  public:
    Span(SpanRecorder *recorder, Layer layer) : recorder_(recorder)
    {
        if (recorder_)
            recorder_->begin(layer);
    }
    ~Span()
    {
        if (recorder_)
            recorder_->end();
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanRecorder *recorder_;
};

/** Op code of a captured coherenceInvalidate (AccessType has no slot). */
constexpr std::uint8_t kInvalidateOp = 0xff;

/** One captured LLC call, replayable into a fresh model of its arch. */
struct LlcOp
{
    Addr blk = 0;
    Cycle cycle = 0;       //!< clock of the core that issued the call
    std::uint8_t kind = 0; //!< AccessType value, or kInvalidateOp
    bool hit = false;
    std::uint8_t memWritebacks = 0;
    std::uint8_t backInvalidations = 0;
    std::array<Addr, 2> writebacks{}; //!< the first two memory writebacks
    std::array<std::uint8_t, kLineBytes> data{};
};

/** One demand load or store, in program order per core. */
struct MemRef
{
    Addr blk = 0;
    std::uint32_t core = 0;
    bool write = false;
};

/** Streams captured from one untimed replica run. */
struct Capture
{
    /** LLC calls recorded at most; later calls are not captured. */
    std::size_t maxOps = 0;
    /** LLC calls issued during warmup: replays run them untimed. */
    std::size_t warmOps = 0;
    std::vector<LlcOp> llc;
    std::vector<MemRef> mem; //!< demand loads/stores (the L1D input)
};

/** Optional instrumentation of a replica; null members are off. */
struct Taps
{
    SpanRecorder *spans = nullptr;
    Capture *capture = nullptr;
};

/**
 * Forwarding Llc: spans each access and coherence invalidation, and
 * optionally captures them. Every other call forwards untimed.
 */
class TappedLlc : public Llc
{
  public:
    TappedLlc(std::unique_ptr<Llc> inner, Taps taps);

    /** Core whose clock stamps captured calls (multi-core: per step). */
    void setClock(const OooCore *core) { clock_ = core; }

    LlcResult access(Addr blk, AccessType type,
                     const std::uint8_t *data) override;
    [[nodiscard]] bool probe(Addr blk) const override;
    [[nodiscard]] bool probeBase(Addr blk) const override;
    void downgradeHint(Addr blk) override;
    LlcResult coherenceInvalidate(Addr blk) override;
    void resetStats() override { inner_->resetStats(); }
    [[nodiscard]] std::size_t validLines() const override
    {
        return inner_->validLines();
    }
    [[nodiscard]] std::string name() const override
    {
        return inner_->name();
    }
    StatGroup &stats() override { return inner_->stats(); }
    const StatGroup &stats() const override { return inner_->stats(); }

  private:
    void record(Addr blk, std::uint8_t kind, const std::uint8_t *data,
                const LlcResult &result);

    std::unique_ptr<Llc> inner_;
    Taps taps_;
    const OooCore *clock_ = nullptr;
};

/**
 * System re-assembled from public parts (the same construction and
 * run loop as sim/system.cc), with a TappedLlc between the hierarchy
 * and the LLC model and spans around trace supply and core batches.
 */
class ReplicaSystem
{
  public:
    ReplicaSystem(const SystemConfig &cfg, const TraceParams &trace,
                  Taps taps = {});

    /** Same contract as System::run. */
    RunResult run(std::uint64_t warmup, std::uint64_t measure);

    Llc &llc() { return *llc_; }
    Dram &dram() { return dram_; }
    Hierarchy &hierarchy() { return *hier_; }
    OooCore &core() { return *core_; }
    FunctionalMemory &memory() { return mem_; }
    [[nodiscard]] const DataPattern &pattern() const
    {
        return trace_.pattern;
    }

  private:
    void step(std::uint64_t count);

    SystemConfig cfg_;
    Taps taps_;
    std::unique_ptr<Compressor> compressor_;
    std::unique_ptr<TappedLlc> llc_;
    Dram dram_;
    OpenedTrace trace_;
    FunctionalMemory mem_;
    std::unique_ptr<Hierarchy> hier_;
    std::unique_ptr<OooCore> core_;
    std::array<TraceRecord, TraceBlockReader::kBlockRecords> block_{};
    std::size_t cursor_ = 0;
    std::size_t filled_ = 0;
};

/**
 * MultiCoreSystem in shared-address-space mode, re-assembled from
 * public parts (the same wiring and stepping as sim/multicore.cc).
 */
class ReplicaMultiCore
{
  public:
    /** fatal() unless mc.sharedAddressSpace: the only mode benchmarked. */
    ReplicaMultiCore(const SystemConfig &cfg,
                     const std::vector<TraceParams> &traces,
                     const MultiCoreConfig &mc, Taps taps = {});

    /** Same contract as MultiCoreSystem::run. */
    MultiRunResult run(std::uint64_t warmup, std::uint64_t measure);

    Llc &llc() { return *llc_; }
    Dram &dram() { return dram_; }
    Hierarchy &hierarchy(CoreId i) { return *hiers_[i.get()]; }
    OooCore &core(CoreId i) { return *cores_[i.get()]; }
    [[nodiscard]] std::size_t numCores() const { return hiers_.size(); }
    CoherenceDirectory *directory() { return directory_.get(); }
    FunctionalMemory &memory() { return mem_; }
    [[nodiscard]] const DataPattern &pattern() const
    {
        return feeds_.front().trace.pattern;
    }

  private:
    /** Per-core block buffer over its trace source. */
    struct Feed
    {
        OpenedTrace trace;
        std::array<TraceRecord, TraceBlockReader::kBlockRecords> block{};
        std::size_t cursor = 0;
        std::size_t filled = 0;
    };

    void stepOne();
    void runAllTo(std::uint64_t target);
    void applyCoherenceAction(const CoherenceAction &action, Addr blk,
                              Cycle cycle);
    void flushToLlc(std::size_t i, Addr blk, Cycle cycle);

    SystemConfig cfg_;
    MultiCoreConfig mc_;
    Taps taps_;
    std::unique_ptr<Compressor> compressor_;
    std::unique_ptr<TappedLlc> llc_;
    Dram dram_;
    std::unique_ptr<CoherenceDirectory> directory_;
    std::vector<Feed> feeds_;
    FunctionalMemory mem_;
    std::vector<std::unique_ptr<Hierarchy>> hiers_;
    std::vector<std::unique_ptr<OooCore>> cores_;
    std::vector<std::uint8_t> done_;
};

/** FNV-1a 64 of `text`, as 16 hex digits. */
std::string fnv1aHex(const std::string &text);

/** Simulated-model counters summarised for the per-layer counts. */
struct Counts
{
    std::uint64_t instructions = 0; //!< measured window
    std::uint64_t cycles = 0;       //!< measured window (summed per core)
    std::uint64_t llcAccesses = 0;
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandHits = 0;
    std::uint64_t victimHits = 0;
    std::uint64_t dramRowHits = 0;
    std::uint64_t dramRowAccesses = 0;
    std::uint64_t touchedLines = 0;
    std::uint64_t l1dAccesses = 0;
    std::uint64_t l1dHits = 0;
    std::uint64_t l2Accesses = 0;
    std::uint64_t l2Hits = 0;

    Counts &operator+=(const Counts &other);
};

/**
 * Every StatGroup of a System, MultiCoreSystem or replica (LLC, DRAM,
 * each core's hierarchy, L1I, L1D, L2 and core, the directory) plus
 * each core's measured instructions and cycles, rendered as text.
 */
template <class S>
std::string
statsDump(S &sys)
{
    std::string out;
    if constexpr (requires { sys.numCores(); }) {
        for (std::size_t i = 0; i < sys.numCores(); ++i) {
            Hierarchy &h = sys.hierarchy(CoreId{i});
            OooCore &c = sys.core(CoreId{i});
            const CoreResult r = c.result();
            out += "core" + std::to_string(i) + " instructions " +
                std::to_string(r.instructions) + " cycles " +
                std::to_string(r.cycles) + "\n";
            out += h.stats().dump() + h.l1i().stats().dump() +
                h.l1d().stats().dump() + h.l2().stats().dump() +
                c.stats().dump();
        }
        if (sys.directory())
            out += sys.directory()->stats().dump();
    } else {
        const CoreResult r = sys.core().result();
        out += "instructions " + std::to_string(r.instructions) +
            " cycles " + std::to_string(r.cycles) + "\n";
        Hierarchy &h = sys.hierarchy();
        out += h.stats().dump() + h.l1i().stats().dump() +
            h.l1d().stats().dump() + h.l2().stats().dump() +
            sys.core().stats().dump();
    }
    out += sys.llc().stats().dump() + sys.dram().stats().dump();
    return out;
}

/** Digest of statsDump(): equal digests mean identical statistics. */
template <class S>
std::string
statsDigest(S &sys)
{
    return fnv1aHex(statsDump(sys));
}

/** Counts of a replica after its measured window. */
template <class S>
Counts
countsOf(S &sys)
{
    Counts c;
    const auto addCore = [&c](Hierarchy &h, OooCore &core) {
        const CoreResult r = core.result();
        c.instructions += r.instructions;
        c.cycles += r.cycles;
        const StatGroup &l1d = h.l1d().stats();
        const StatGroup &l2 = h.l2().stats();
        c.l1dAccesses += l1d.get("accesses");
        c.l1dHits += l1d.get("read_hits") + l1d.get("write_hits");
        c.l2Accesses += l2.get("accesses");
        c.l2Hits += l2.get("read_hits") + l2.get("write_hits");
    };
    if constexpr (requires { sys.numCores(); }) {
        for (std::size_t i = 0; i < sys.numCores(); ++i)
            addCore(sys.hierarchy(CoreId{i}), sys.core(CoreId{i}));
    } else {
        addCore(sys.hierarchy(), sys.core());
    }
    const StatGroup &llc = sys.llc().stats();
    c.llcAccesses = llc.get("accesses");
    c.demandAccesses = llc.get("demand_accesses");
    c.demandHits = llc.get("demand_hits");
    c.victimHits = llc.get("victim_hits");
    const StatGroup &dram = sys.dram().stats();
    c.dramRowHits = dram.get("row_hits");
    c.dramRowAccesses = c.dramRowHits + dram.get("row_closed") +
        dram.get("row_conflicts");
    c.touchedLines = sys.memory().touchedLines();
    return c;
}

/** Layer ratios measured on a capture's post-warmup LLC calls. */
struct CaptureRatios
{
    /** Calls whose result carries a writeback or back-invalidation. */
    double resultNonEmpty = 0.0;
    /** Calls whose line bytes equal the bytes last seen at that address. */
    double sameBytes = 0.0;
    /** Calls that are writebacks from the private levels. */
    double writeback = 0.0;
};

CaptureRatios captureRatios(const Capture &capture);

/** Rates of each layer replayed alone, in operations per second. */
struct ReplayRates
{
    double llcAccess = 0.0; //!< Llc::access / coherenceInvalidate
    double compressSegments = 0.0; //!< compressedSegmentsFor
    double funcmemLine = 0.0;      //!< FunctionalMemory::line
    double dramRequest = 0.0;      //!< Dram read/prefetchRead/write
    double l1dAccess = 0.0;        //!< Cache::access on the L1D stream
    double l2Access = 0.0;         //!< Cache::access on L1D misses
    double directoryOp = 0.0;      //!< CoherenceDirectory onRead/onWrite
    /** False if a replayed LLC hit/miss differed from the capture. */
    bool llcFaithful = true;
};

/**
 * Replay the LLC stream of `capture` through a fresh makeLlc(cfg) with
 * the warmup calls untimed; median rate over `reps` fresh models. The
 * stream must come from a run of the same `cfg` (arch, banks, size).
 */
void replayLlc(const SystemConfig &cfg, const Capture &capture,
               unsigned reps, ReplayRates &rates);

/**
 * Replay everything but the LLC: compression sizing, functional-memory
 * line lookups, the DRAM request stream, the per-core L1D stream and
 * its misses through fresh L1D/L2 caches, and the per-core store and
 * L1D-miss streams interleaved round-robin through a directory.
 */
void replayOthers(const SystemConfig &cfg, const Capture &capture,
                  const DataPattern &pattern, std::size_t cores,
                  unsigned reps, ReplayRates &rates);

/**
 * TraceSource::nextBlock alone: `records` records pulled in 256-record
 * blocks round-robin over fresh sources of `traces`; median over reps.
 */
double replayTrace(const std::vector<TraceParams> &traces,
                   std::uint64_t records, unsigned reps);

} // namespace bvbench

#endif // BVBENCH_BVBENCH_HH_
