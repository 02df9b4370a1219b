/**
 * @file
 * The bvbench workloads, shared by the benchmark and its replica
 * identity test. README.md records why each workload was chosen.
 */

#ifndef BVBENCH_WORKLOADS_HH_
#define BVBENCH_WORKLOADS_HH_

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "bvbench.hh"
#include "trace/workload_suite.hh"
#include "util/logging.hh"

namespace bvbench
{

using namespace bvc;

enum class Shape
{
    SingleCore,
    MultiCore,
    Sweep,
};

/**
 * Instructions per timed unit (per core, or per sweep job). A unit runs
 * `warmup` then `measure` instructions as run() calls of `chunk`
 * measured instructions each; every call is timed on its own.
 */
struct Window
{
    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    std::uint64_t chunk = 0; //!< 0: one run() call (sweep jobs)
};

/**
 * One workload. A run repeats a fixed unit of work until its time is
 * up, so every unit is identical and so must its statistics be.
 */
struct Workload
{
    const char *name;
    Shape shape;
    const char *trace; //!< suite trace of a single-core workload
    bool storeHeavy;   //!< loadFrac 0.15 / storeFrac 0.25 override
    Window full;
    Window smoke;
    /** Measured instructions (per core) of the untimed capture run. */
    std::uint64_t captureMeasure;
};

inline constexpr Workload kWorkloads[] = {
    // ~294 LLC calls per 1k instructions: LLC, compression and
    // functional-memory changes show most here.
    {"bv_llc_bound", Shape::SingleCore, "SPECFP/cactusADM.0", false,
     {200'000, 1'800'000, 100'000}, {2'000, 20'000, 10'000}, 600'000},
    // The same LLC layer used for writes: more writebacks and fewer
    // unchanged lines per LLC call.
    {"bv_store_heavy", Shape::SingleCore, "SPECFP/cactusADM.0", true,
     {200'000, 1'400'000, 100'000}, {2'000, 20'000, 10'000}, 500'000},
    // Small working set, ~42 LLC calls per 1k instructions: LLC-only
    // changes should not move it; core, cache and trace changes should.
    {"bv_core_bound", Shape::SingleCore, "SPECFP/cactusADM.3", false,
     {200'000, 4'800'000, 300'000}, {2'000, 20'000, 10'000}, 2'000'000},
    // The only workload with the coherence directory and banked LLC.
    {"mc16_msi", Shape::MultiCore, "", false, {25'000, 50'000, 5'000},
     {1'000, 2'000, 1'000}, 50'000},
    // A figure-shaped campaign: every LLC model, per-job construction,
    // the thread pool, the journal and the report.
    {"sweep_all_arches", Shape::Sweep, "", false, {200'000, 400'000, 0},
     {2'000, 5'000, 0}, 400'000},
};

inline constexpr std::size_t kMcCores = 16;
inline constexpr std::size_t kMcBanks = 4;

/** `params` with a nonzero benchmark seed mixed into its trace seed. */
inline TraceParams
seeded(TraceParams params, std::uint64_t seed)
{
    if (seed == 0)
        return params;
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ULL; // splitmix64
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    params.seed ^= x ^ (x >> 31);
    return params;
}

/** Everything a single- or multi-core workload's system is built from. */
struct SimSpec
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    std::vector<TraceParams> traces; //!< one per core
    MultiCoreConfig mc;
    Window unit;
    std::uint64_t captureMeasure = 0;
};

inline SimSpec
makeSimSpec(const Workload &w, std::uint64_t seed, bool smoke)
{
    const WorkloadSuite suite;
    SimSpec spec;
    spec.cfg.arch = LlcArch::BaseVictim;
    if (w.shape == Shape::MultiCore) {
        spec.cfg.llcBanks = kMcBanks;
        spec.mc.coherence = CoherenceKind::Msi;
        spec.mc.sharedAddressSpace = true;
        const std::vector<std::size_t> mix =
            suite.mixesN(kMcCores, 1).front();
        for (const std::size_t idx : mix)
            spec.traces.push_back(seeded(suite.all()[idx].params, seed));
    } else {
        for (const WorkloadInfo &info : suite.all()) {
            if (info.params.name != w.trace)
                continue;
            TraceParams params = info.params;
            if (w.storeHeavy) {
                params.loadFrac = 0.15;
                params.storeFrac = 0.25;
            }
            spec.traces.push_back(seeded(params, seed));
        }
        if (spec.traces.size() != 1)
            fatal(std::string("trace ") + w.trace + " is not in the suite");
    }
    spec.unit = smoke ? w.smoke : w.full;
    spec.captureMeasure = smoke ? w.smoke.measure : w.captureMeasure;
    return spec;
}

/** Build a System, MultiCoreSystem or replica of one from `spec`. */
template <class S>
std::unique_ptr<S>
build(const SimSpec &spec, Taps taps = {})
{
    if constexpr (std::is_same_v<S, System>)
        return std::make_unique<System>(spec.cfg, spec.traces.front());
    else if constexpr (std::is_same_v<S, MultiCoreSystem>)
        return std::make_unique<MultiCoreSystem>(spec.cfg, spec.traces,
                                                 spec.mc);
    else if constexpr (std::is_same_v<S, ReplicaSystem>)
        return std::make_unique<ReplicaSystem>(spec.cfg,
                                               spec.traces.front(), taps);
    else
        return std::make_unique<ReplicaMultiCore>(spec.cfg, spec.traces,
                                                  spec.mc, taps);
}

} // namespace bvbench

#endif // BVBENCH_WORKLOADS_HH_
