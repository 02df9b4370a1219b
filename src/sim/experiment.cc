#include "sim/experiment.hh"

#include <cmath>
#include <cstdlib>

#include "runner/sweep.hh"
#include "util/env.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace bvc
{

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    if (const char *env = std::getenv("BVC_WARMUP"))
        opts.warmup = parsePositiveUint("BVC_WARMUP", env);
    if (const char *env = std::getenv("BVC_INSTR"))
        opts.measure = parsePositiveUint("BVC_INSTR", env);
    if (const char *env = std::getenv("BVC_THREADS"))
        opts.threads = static_cast<unsigned>(
            parsePositiveUint("BVC_THREADS", env));
    if (const char *env = std::getenv("BVC_DECODE_AHEAD"))
        opts.decodeAhead = parseBool01("BVC_DECODE_AHEAD", env);
    return opts;
}

RunResult
runTrace(const SystemConfig &cfg, const TraceParams &trace,
         const ExperimentOptions &opts)
{
    if (trace.name.empty())
        throw BvcError(ErrorCategory::Trace, "trace has no name");
    if (opts.measure == 0)
        throw BvcError(ErrorCategory::Config,
                       "measurement window is empty (measure = 0)")
            .withContext("running trace " + trace.name);
    try {
        TraceParams params = trace;
        params.decodeAhead = opts.decodeAhead;
        System system(cfg, params);
        return system.run(opts.warmup, opts.measure);
    } catch (BvcError &e) {
        throw e.withContext("running trace " + trace.name);
    } catch (const std::exception &e) {
        // Anything the model throws gets the structured wrapper, so a
        // failed sweep job reports its category and which trace it was
        // simulating (docs/robustness.md).
        throw BvcError(ErrorCategory::Model, e.what())
            .withContext("running trace " + trace.name);
    }
}

std::vector<TraceRatio>
compareOnSuite(const SystemConfig &baseCfg, const SystemConfig &testCfg,
               const WorkloadSuite &suite,
               const std::vector<std::size_t> &indices,
               const ExperimentOptions &opts)
{
    // Submit every (config, trace) pair to the sweep engine: jobs
    // 2i / 2i+1 are trace i's baseline / test runs, and the engine
    // returns results in submission order, so the aggregation below is
    // independent of how workers interleave.
    std::vector<SweepJob> jobs;
    jobs.reserve(indices.size() * 2);
    for (const std::size_t idx : indices) {
        const WorkloadInfo &info = suite.all()[idx];
        jobs.push_back({baseCfg, info.params, opts, "base", {}});
        jobs.push_back({testCfg, info.params, opts, "test", {}});
    }

    SweepOptions sweepOpts;
    sweepOpts.threads = opts.threads;
    sweepOpts.progress = std::getenv("BVC_PROGRESS") != nullptr;
    SweepEngine engine(sweepOpts);
    const std::vector<JobResult> results = engine.run(jobs);
    failOnJobErrors(results);

    std::vector<TraceRatio> out;
    out.reserve(indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const WorkloadInfo &info = suite.all()[indices[i]];
        TraceRatio ratio;
        ratio.name = info.params.name;
        ratio.category = info.params.category;
        ratio.compressionFriendly = info.compressionFriendly;
        ratio.base = results[2 * i].result;
        ratio.test = results[2 * i + 1].result;
        ratio.baseSeconds = results[2 * i].wallSeconds;
        ratio.testSeconds = results[2 * i + 1].wallSeconds;
        if (!std::isfinite(ratio.base.ipc) || ratio.base.ipc <= 0.0)
            panic("baseline IPC must be finite and positive (trace " +
                  ratio.name + ")");
        if (!std::isfinite(ratio.test.ipc) || ratio.test.ipc <= 0.0)
            panic("test IPC must be finite and positive (trace " +
                  ratio.name + ")");
        ratio.ipcRatio = ratio.test.ipc / ratio.base.ipc;
        // Traces with almost no memory traffic get a neutral ratio.
        ratio.dramReadRatio = ratio.base.dramReads > 0
            ? static_cast<double>(ratio.test.dramReads) /
                  static_cast<double>(ratio.base.dramReads)
            : 1.0;
        out.push_back(std::move(ratio));
    }
    return out;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double logSum = 0.0;
    for (const double v : values) {
        // NaN compares false against any threshold, so a plain
        // v <= 0.0 guard would let it slip through and silently poison
        // the aggregate via log(NaN).
        if (!std::isfinite(v) || v <= 0.0)
            panic("geomean requires finite positive values, got " +
                  std::to_string(v));
        logSum += std::log(v);
    }
    return std::exp(logSum / static_cast<double>(values.size()));
}

double
categoryIpcGeomean(const std::vector<TraceRatio> &ratios,
                   WorkloadCategory category)
{
    std::vector<double> values;
    for (const TraceRatio &r : ratios)
        if (r.category == category)
            values.push_back(r.ipcRatio);
    return geomean(values);
}

double
overallIpcGeomean(const std::vector<TraceRatio> &ratios)
{
    std::vector<double> values;
    values.reserve(ratios.size());
    for (const TraceRatio &r : ratios)
        values.push_back(r.ipcRatio);
    return geomean(values);
}

double
overallDramReadGeomean(const std::vector<TraceRatio> &ratios)
{
    std::vector<double> values;
    values.reserve(ratios.size());
    for (const TraceRatio &r : ratios)
        values.push_back(r.dramReadRatio);
    return geomean(values);
}

std::size_t
countBelow(const std::vector<TraceRatio> &ratios, double threshold)
{
    std::size_t count = 0;
    for (const TraceRatio &r : ratios)
        if (r.ipcRatio < threshold)
            ++count;
    return count;
}

double
averageCompressedFraction(const DataPattern &pattern,
                          const Compressor &comp, std::uint64_t samples)
{
    std::uint64_t totalBytes = 0;
    std::uint8_t line[kLineBytes];
    for (std::uint64_t i = 0; i < samples; ++i) {
        pattern.fillLine(i * kLineBytes, line);
        totalBytes += comp.compressedBytes(line);
    }
    return static_cast<double>(totalBytes) /
           (static_cast<double>(samples) * kLineBytes);
}

} // namespace bvc
