/**
 * @file
 * Simulator-throughput harness for the SoA hot path: runs the same
 * measured window through every LLC organization and reports model
 * accesses/sec, simulated instructions/sec, and sweep jobs/sec, plus a
 * BDI size-only compression microrate. Emits machine-readable JSON
 * (default BENCH_10.json; --out <path> overrides) so CI and regression
 * tooling can track simulation throughput across commits — see
 * docs/performance.md for the schema and the tracked trajectory.
 *
 * --smoke shrinks every window so the CI perf-smoke job can validate
 * the emitted schema in seconds without timing noise mattering.
 * --bvsweep <path> additionally times a sharded campaign through the
 * real bvsweep binary (single process vs --workers 4) and emits the
 * "sharded_campaign" section.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common.hh"
#include "compress/bdi.hh"
#include "runner/report.hh"
#include "sim/experiment.hh"
#include "sim/multicore.hh"
#include "trace/data_patterns.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace bvc;

namespace
{

double
secondsSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
perSecond(double count, double seconds)
{
    return count / (seconds > 0.0 ? seconds : 1e-9);
}

/** One measured LLC organization. */
struct ModelSample
{
    LlcArch arch;
    double accessesPerSec = 0.0;     //!< LLC model accesses/sec
    double instructionsPerSec = 0.0; //!< simulated instructions/sec
    double jobsPerSec = 0.0;         //!< full runTrace jobs/sec
};

constexpr LlcArch kArches[] = {
    LlcArch::Uncompressed, LlcArch::TwoTagNaive, LlcArch::TwoTagModified,
    LlcArch::BaseVictim,   LlcArch::Vsc,         LlcArch::Dcc,
};

/**
 * BDI size-only rate over pattern-filled lines — the exact kernel every
 * compressed model runs per LLC fill and writeback. The lines are
 * filled before the clock starts, so only sizing is timed; `lines`
 * calls cycle through 4,096 distinct lines.
 */
double
compressSizeRate(std::uint64_t lines)
{
    const BdiCompressor bdi;
    const DataPattern pattern(DataPatternKind::MixedGood, 7);
    constexpr std::size_t kRing = 4096;
    std::vector<std::uint8_t> ring(kRing * kLineBytes);
    for (std::size_t i = 0; i < kRing; ++i)
        pattern.fillLine(i * kLineBytes, ring.data() + i * kLineBytes);
    // Checksum defeats dead-code elimination of the sizing loop.
    std::uint64_t checksum = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < lines; ++i)
        checksum +=
            bdi.compressedBytes(ring.data() + (i % kRing) * kLineBytes);
    const double seconds = secondsSince(start);
    if (checksum == 0xdead)
        std::printf("~\n"); // never taken; keeps checksum observable
    return perSecond(static_cast<double>(lines), seconds);
}

/** Timed rates of the --bvsweep sharded-campaign comparison. */
struct ShardedSample
{
    std::uint64_t jobs = 0;    //!< campaign size (traces x arches)
    std::uint64_t workers = 0; //!< worker processes in the sharded leg
    double singleJobsPerSec = 0.0;  //!< one process, one thread
    double shardedJobsPerSec = 0.0; //!< supervised worker fleet
};

/**
 * Campaign-level throughput through the real bvsweep binary: the same
 * grid once single-process and once under `--workers N` with per-shard
 * journals, so the tracked artifact records what process-level
 * sharding buys (and costs — fork/exec, journal fsync, merge) on this
 * machine. Exits fatally if either invocation fails: a benchmark that
 * silently times a crashed campaign would report garbage.
 */
ShardedSample
shardedCampaignRate(const std::string &bvsweep, bool smoke)
{
    ShardedSample sample;
    sample.workers = 4;
    // 2 arches x 4 traces = 8 jobs: enough to give every worker two,
    // small enough that the full bench stays minutes, not hours.
    const std::uint64_t traces = 4;
    sample.jobs = 2 * traces;
    const std::string grid =
        "--arch base-victim,vsc --traces sensitive --limit " +
        std::to_string(traces) +
        (smoke ? " --warmup 2000 --instr 5000" :
                 " --warmup 50000 --instr 100000") +
        " --threads 1 --quiet";
    const std::string dir = "bench_throughput_shards";

    const auto timed = [](const std::string &command) {
        const auto start = std::chrono::steady_clock::now();
        const int rc = std::system(command.c_str());
        if (rc != 0) {
            std::fprintf(stderr, "bench: '%s' exited %d\n",
                         command.c_str(), rc);
            std::exit(1);
        }
        return secondsSince(start);
    };

    const double singleSeconds =
        timed(bvsweep + " " + grid + " >/dev/null");
    (void)std::system(("rm -rf " + dir).c_str());
    const double shardedSeconds = timed(
        bvsweep + " " + grid + " --workers " +
        std::to_string(sample.workers) + " --journal-dir " + dir +
        " >/dev/null");
    (void)std::system(("rm -rf " + dir).c_str());

    sample.singleJobsPerSec =
        perSecond(static_cast<double>(sample.jobs), singleSeconds);
    sample.shardedJobsPerSec =
        perSecond(static_cast<double>(sample.jobs), shardedSeconds);
    return sample;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonPath = "BENCH_10.json";
    std::string bvsweepPath;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
        else if (std::strcmp(argv[i], "--bvsweep") == 0 && i + 1 < argc)
            bvsweepPath = argv[++i];
        else {
            std::fprintf(stderr,
                         "bench_throughput: unknown argument '%s'\n"
                         "usage: bench_throughput [--smoke] "
                         "[--out PATH] [--bvsweep PATH]\n",
                         argv[i]);
            return 2;
        }
    }

    bench::Context ctx;
    bench::printHeader(
        "Simulator throughput: accesses/sec and jobs/sec per LLC model",
        "infrastructure bench (no paper figure); docs/performance.md",
        ctx);

    const TraceParams params = ctx.suite.all().front().params;
    const std::uint64_t warmup = smoke ? 2'000 : ctx.opts.warmup;
    const std::uint64_t measure = smoke ? 5'000 : ctx.opts.measure;
    const std::uint64_t jobs = smoke ? 2 : 4;
    const std::uint64_t compressLines = smoke ? 20'000 : 2'000'000;

    std::vector<ModelSample> samples;
    for (const LlcArch arch : kArches) {
        ModelSample sample;
        sample.arch = arch;

        SystemConfig cfg = ctx.baseline;
        cfg.arch = arch;

        // Direct window: the timed region is exactly the measured run,
        // so the rate reflects the probe/metadata hot path.
        {
            System system(cfg, params);
            const auto start = std::chrono::steady_clock::now();
            const RunResult r = system.run(warmup, measure);
            const double seconds = secondsSince(start);
            sample.accessesPerSec =
                perSecond(static_cast<double>(r.llcAccesses), seconds);
            sample.instructionsPerSec =
                perSecond(static_cast<double>(r.instructions), seconds);
        }

        // Sweep-shaped work: whole runTrace jobs, construction included,
        // the unit the campaign runner schedules.
        {
            ExperimentOptions jobOpts = ctx.opts;
            jobOpts.warmup = warmup;
            jobOpts.measure = measure;
            const auto start = std::chrono::steady_clock::now();
            for (std::uint64_t j = 0; j < jobs; ++j)
                runTrace(cfg, params, jobOpts);
            const double seconds = secondsSince(start);
            sample.jobsPerSec =
                perSecond(static_cast<double>(jobs), seconds);
        }
        samples.push_back(sample);
    }

    const double compressLinesPerSec = compressSizeRate(compressLines);

    // Coherent many-core throughput: 16 MSI cores in one address space
    // over the 4-bank Base-Victim LLC — the configuration the
    // coherence layer adds, measured end to end (directory lookups,
    // bank routing, invalidation fan-out all on the timed path).
    constexpr std::size_t kMcCores = 16;
    constexpr std::size_t kMcBanks = 4;
    std::uint64_t mcInstructions = 0;
    double mcInstructionsPerSec = 0.0;
    {
        SystemConfig cfg = ctx.baseline;
        cfg.arch = LlcArch::BaseVictim;
        cfg.llcBanks = kMcBanks;
        MultiCoreConfig mc;
        mc.coherence = CoherenceKind::Msi;
        mc.sharedAddressSpace = true;
        // Named draw: .front() of the temporary would dangle in the
        // range-for under C++20 (P2718 only fixes this in C++23).
        const auto mix = ctx.suite.mixesN(kMcCores, 1).front();
        std::vector<TraceParams> traces;
        for (const std::size_t idx : mix)
            traces.push_back(ctx.suite.all()[idx].params);
        MultiCoreSystem system(cfg, traces, mc);
        const std::uint64_t mcWarmup = warmup / 4;
        const std::uint64_t mcMeasure = measure / 4;
        const auto start = std::chrono::steady_clock::now();
        const MultiRunResult r = system.run(mcWarmup, mcMeasure);
        const double seconds = secondsSince(start);
        for (const std::uint64_t n : r.instructions)
            mcInstructions += n;
        mcInstructionsPerSec =
            perSecond(static_cast<double>(mcInstructions), seconds);
    }

    ShardedSample sharded;
    if (!bvsweepPath.empty())
        sharded = shardedCampaignRate(bvsweepPath, smoke);

    Table table({"model", "Maccess/s", "Minstr/s", "jobs/s"});
    for (const ModelSample &sample : samples)
        table.addRow({llcArchName(sample.arch),
                      Table::num(sample.accessesPerSec / 1e6, 2),
                      Table::num(sample.instructionsPerSec / 1e6, 2),
                      Table::num(sample.jobsPerSec, 2)});
    std::printf("\n%s", table.render().c_str());
    std::printf("\n[compress-size] BDI size-only validation: %.2f "
                "Mlines/s over %llu mixed lines\n",
                compressLinesPerSec / 1e6,
                static_cast<unsigned long long>(compressLines));
    std::printf("[multicore] %zu MSI cores, %zu-bank base-victim LLC: "
                "%.2f Minstr/s aggregate (%llu instructions)\n",
                kMcCores, kMcBanks, mcInstructionsPerSec / 1e6,
                static_cast<unsigned long long>(mcInstructions));
    if (!bvsweepPath.empty())
        std::printf("[sharded] %llu-job campaign: %.3f jobs/s single "
                    "process, %.3f jobs/s with %llu workers (%.2fx)\n",
                    static_cast<unsigned long long>(sharded.jobs),
                    sharded.singleJobsPerSec, sharded.shardedJobsPerSec,
                    static_cast<unsigned long long>(sharded.workers),
                    sharded.shardedJobsPerSec /
                        (sharded.singleJobsPerSec > 0.0
                             ? sharded.singleJobsPerSec
                             : 1e-9));

    // Machine-readable export for CI trend tracking (schema documented
    // in docs/performance.md; validated by scripts/check_bench_json.py).
    std::string json = "{\n  \"bench\": \"throughput\",\n";
    json += "  \"schema_version\": 1,\n";
    json += std::string("  \"smoke\": ") + (smoke ? "true" : "false") +
            ",\n";
    json += "  \"trace\": \"" + jsonEscape(params.name) + "\",\n";
    json += "  \"warmup\": " + std::to_string(warmup) + ",\n";
    json += "  \"measure\": " + std::to_string(measure) + ",\n";
    json += "  \"jobs_per_model\": " + std::to_string(jobs) + ",\n";
    json += "  \"models\": [\n";
    for (std::size_t i = 0; i < samples.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "    {\"model\": \"%s\", "
                      "\"accesses_per_sec\": %.0f, "
                      "\"instructions_per_sec\": %.0f, "
                      "\"jobs_per_sec\": %.3f}%s\n",
                      llcArchName(samples[i].arch),
                      samples[i].accessesPerSec,
                      samples[i].instructionsPerSec,
                      samples[i].jobsPerSec,
                      i + 1 < samples.size() ? "," : "");
        json += buf;
    }
    json += "  ],\n";
    {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "  \"multicore\": {\"cores\": %zu, "
                      "\"llc_banks\": %zu, \"coherence\": \"MSI\", "
                      "\"instructions\": %llu, "
                      "\"instructions_per_sec\": %.0f},\n",
                      kMcCores, kMcBanks,
                      static_cast<unsigned long long>(mcInstructions),
                      mcInstructionsPerSec);
        json += buf;
    }
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "  \"compress_size\": {\"lines\": %llu, "
                      "\"lines_per_sec\": %.0f}%s\n",
                      static_cast<unsigned long long>(compressLines),
                      compressLinesPerSec,
                      bvsweepPath.empty() ? "" : ",");
        json += buf;
    }
    // Present only when --bvsweep names the campaign binary; older
    // artifacts (and runs without it) simply lack the section.
    if (!bvsweepPath.empty()) {
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "  \"sharded_campaign\": {\"jobs\": %llu, "
                      "\"workers\": %llu, "
                      "\"single_jobs_per_sec\": %.3f, "
                      "\"sharded_jobs_per_sec\": %.3f}\n",
                      static_cast<unsigned long long>(sharded.jobs),
                      static_cast<unsigned long long>(sharded.workers),
                      sharded.singleJobsPerSec,
                      sharded.shardedJobsPerSec);
        json += buf;
    }
    json += "}\n";
    writeFile(jsonPath, json);
    std::printf("wrote %s\n", jsonPath.c_str());
    return 0;
}
