/**
 * @file
 * bvbench: the simulator's benchmark. One invocation runs one workload
 * in this process for about --seconds, prints every metric as a JSON
 * line, then one summary object as the last line of standard output:
 *
 *   bvbench --workload W [--seed S] [--seconds T] [--trace 0|1]
 *           [--smoke] [--out DIR]
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation.
 * --trace 1 measures the per-layer metrics: spans recorded around calls
 * into the trace, core and LLC layers of a replica system, ratios and
 * stream replays from a captured run, and model counts. --seed 0 keeps
 * the workload suite's trace seeds; any other seed is mixed into every
 * trace seed. The run fails (exit 1, "correct": false) if any
 * simulated statistic is not what it must be; see README.md.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/sweep.hh"
#include "util/json.hh"
#include "workloads.hh"

namespace bvbench
{
namespace
{

constexpr const char *kUsage =
    "usage: bvbench --workload W [--seed S] [--seconds T] [--trace 0|1]\n"
    "               [--smoke] [--out DIR]\n"
    "workloads: bv_llc_bound bv_store_heavy bv_core_bound mc16_msi\n"
    "           sweep_all_arches\n";

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "bvbench: %s\n%s", why.c_str(), kUsage);
    std::exit(2);
}

constexpr LlcArch kArches[] = {
    LlcArch::Uncompressed, LlcArch::TwoTagNaive, LlcArch::TwoTagModified,
    LlcArch::BaseVictim,   LlcArch::Vsc,         LlcArch::Dcc,
};

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool traced = false;
    bool smoke = false;
    std::string out = "bvbench_out";
};

std::uint64_t
parseU64(const std::string &flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (*text == '\0' || *text == '-' || *end != '\0' || errno != 0)
        usage(flag + " needs a non-negative integer, got '" + text + "'");
    return v;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            const std::string name = value();
            for (const Workload &w : kWorkloads)
                if (name == w.name)
                    opt.workload = &w;
            if (!opt.workload)
                usage("unknown workload '" + name + "'");
        } else if (arg == "--seed") {
            opt.seed = parseU64(arg, value());
        } else if (arg == "--seconds") {
            const char *text = value();
            char *end = nullptr;
            opt.seconds = std::strtod(text, &end);
            if (*end != '\0' || !(opt.seconds > 0.0) ||
                !std::isfinite(opt.seconds))
                usage("--seconds needs a positive number");
        } else if (arg == "--trace") {
            const std::uint64_t t = parseU64(arg, value());
            if (t > 1)
                usage("--trace takes 0 or 1");
            opt.traced = t == 1;
        } else if (arg == "--smoke") {
            opt.smoke = true;
        } else if (arg == "--out") {
            opt.out = value();
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (!opt.workload)
        usage("--workload is required");
    return opt;
}

/**
 * Metric lines, the correctness tally and the summary line. A failed
 * check marks the run incorrect and names the failure on stderr.
 */
class Output
{
  public:
    explicit Output(const Options &opt) : opt_(opt) {}

    void metric(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value)) {
            check(false, "metric " + name + " is not finite");
            value = 0.0;
        }
        std::printf("{\"workload\": \"%s\", \"metric\": \"%s\", "
                    "\"value\": %s, \"unit\": \"%s\", \"kind\": \"%s\"}\n",
                    opt_.workload->name, name.c_str(),
                    jsonRawNum(value).c_str(), unit,
                    opt_.traced ? "layer" : "e2e");
        summary_ += std::string(summary_.empty() ? "" : ", ") + "\"" +
            name + "\": {\"value\": " + jsonRawNum(value) +
            ", \"unit\": \"" + unit + "\"}";
    }

    void attempt() { ++attempted_; }

    void check(bool ok, const std::string &what)
    {
        if (ok)
            return;
        ++failed_;
        std::fprintf(stderr, "bvbench: check failed: %s\n", what.c_str());
    }

    /** The digest of the workload's statistics for the first unit. */
    void digest(const std::string &digest) { digest_ = digest; }

    /** Print the digest and summary lines; returns the exit code. */
    int finish(std::time_t started)
    {
        compareExpectedDigest();
        std::printf("{\"workload\": \"%s\", \"seed\": %llu, "
                    "\"smoke\": %s, \"trace\": %d, \"digest\": \"%s\", "
                    "\"started_unix\": %lld}\n",
                    opt_.workload->name,
                    static_cast<unsigned long long>(opt_.seed),
                    opt_.smoke ? "true" : "false", opt_.traced ? 1 : 0,
                    digest_.c_str(), static_cast<long long>(started));
        const bool correct = failed_ == 0;
        std::printf("{\"correct\": %s, \"attempted\": %llu, "
                    "\"failed\": %llu, \"metrics\": {%s}}\n",
                    correct ? "true" : "false",
                    static_cast<unsigned long long>(attempted_),
                    static_cast<unsigned long long>(failed_),
                    summary_.c_str());
        std::fflush(stdout);
        return correct ? 0 : 1;
    }

  private:
    /** At seed 0 the digest must equal the committed one. */
    void compareExpectedDigest()
    {
        if (opt_.seed != 0)
            return;
        const std::string path =
            std::string(BVBENCH_DIR) + "/expected_digests.json";
        std::ifstream in(path);
        if (!in) {
            check(false, "cannot read " + path);
            return;
        }
        std::stringstream text;
        text << in.rdbuf();
        const std::string doc = text.str();
        const std::string size = opt_.smoke ? "smoke" : "full";
        std::string want;
        try {
            JsonReader reader(doc);
            reader.parseObject([&](const std::string &sizeKey) {
                reader.parseObject([&](const std::string &name) {
                    const std::string d = reader.parseString();
                    if (sizeKey == size && name == opt_.workload->name)
                        want = d;
                });
            });
            reader.expectEnd();
        } catch (const BvcError &e) {
            check(false, path + ": " + e.what());
            return;
        }
        attempt();
        check(!digest_.empty() && digest_ == want,
              "statistics digest " + digest_ + " differs from the " +
                  size + " digest '" + want + "' in " + path);
    }

    const Options &opt_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::string summary_;
    std::string digest_;
};

/** Set an environment variable for a scope (single-threaded use only). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }
    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
};

/**
 * Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss would also count the parent's memory at fork: Linux keeps
 * it across exec.
 */
double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    fatal("VmHWM missing from /proc/self/status");
}

/** Run `unit(n)` until `seconds` have passed and at least `min` ran. */
template <class Unit>
void
repeatFor(double seconds, unsigned min, Unit &&unit)
{
    const Clock::time_point start = Clock::now();
    unsigned n = 0;
    do
        unit(n++);
    while (n < min || secondsSince(start) < seconds);
}

/**
 * Pairs of one untraced and one traced unit for `seconds`, alternating
 * which runs first so drift in the host's speed hits both alike.
 */
template <class Plain, class Traced>
void
alternate(double seconds, unsigned min, Plain &&plain, Traced &&traced)
{
    repeatFor(seconds, min, [&](unsigned n) {
        if (n % 2 == 0) {
            plain();
            traced(n);
        } else {
            traced(n);
            plain();
        }
    });
}

bool
sameRun(const RunResult &a, const RunResult &b)
{
    return a.ipc == b.ipc && a.instructions == b.instructions &&
        a.cycles == b.cycles && a.dramReads == b.dramReads &&
        a.dramWrites == b.dramWrites &&
        a.dramDemandReads == b.dramDemandReads &&
        a.llcDemandAccesses == b.llcDemandAccesses &&
        a.llcDemandHits == b.llcDemandHits &&
        a.llcDemandMisses == b.llcDemandMisses &&
        a.llcVictimHits == b.llcVictimHits &&
        a.llcAccesses == b.llcAccesses &&
        a.backInvalidations == b.backInvalidations;
}

/** Per-layer metrics of spans summed over the traced units. */
struct SpanTotals
{
    std::array<std::vector<double>, kLayers> selfPerUnit;
    std::array<double, kLayers> self{};
    double llcCalls = 0.0;
    double instructions = 0.0;
    double tracedSeconds = 0.0; //!< summed run time of the traced units

    void addUnit(const std::vector<const SpanRecorder *> &recorders,
                 double instr, double runSeconds)
    {
        for (std::size_t l = 0; l < kLayers; ++l) {
            double s = 0.0;
            for (const SpanRecorder *r : recorders)
                s += r->selfSeconds(static_cast<Layer>(l));
            selfPerUnit[l].push_back(s);
            self[l] += s;
        }
        for (const SpanRecorder *r : recorders)
            llcCalls += static_cast<double>(r->count(Layer::Llc));
        instructions += instr;
        tracedSeconds += runSeconds;
    }

    /** @param overhead traced over untraced unit time, minus 1 */
    void emit(Output &out, double overhead) const
    {
        const auto share = [&](Layer l) {
            return self[static_cast<std::size_t>(l)] / tracedSeconds;
        };
        const auto selfS = [&](Layer l) {
            return median(selfPerUnit[static_cast<std::size_t>(l)]);
        };
        out.metric("trace.self_s", selfS(Layer::Trace), "s");
        out.metric("trace.share", share(Layer::Trace), "fraction");
        out.metric("core.self_s", selfS(Layer::Core), "s");
        out.metric("core.share", share(Layer::Core), "fraction");
        out.metric("core.ns_per_instr",
                   self[static_cast<std::size_t>(Layer::Core)] /
                       instructions * 1e9,
                   "ns");
        out.metric("llc.self_s", selfS(Layer::Llc), "s");
        out.metric("llc.share", share(Layer::Llc), "fraction");
        out.metric("llc.ns_per_access",
                   self[static_cast<std::size_t>(Layer::Llc)] / llcCalls *
                       1e9,
                   "ns");
        out.metric("tracing.overhead", overhead, "fraction");
    }
};

void
emitCapture(Output &out, const CaptureRatios &ratios,
            const ReplayRates &rates, double recordsPerSec)
{
    out.metric("llc.result_nonempty_frac", ratios.resultNonEmpty,
               "fraction");
    out.metric("compress.same_bytes_frac", ratios.sameBytes, "fraction");
    out.metric("compress.writeback_frac", ratios.writeback, "fraction");
    out.metric("llc.replay_access_per_s", rates.llcAccess, "1/s");
    out.metric("compress.segments_per_s", rates.compressSegments, "1/s");
    out.metric("memory.funcmem_line_per_s", rates.funcmemLine, "1/s");
    out.metric("memory.dram_req_per_s", rates.dramRequest, "1/s");
    out.metric("cache.l1d_access_per_s", rates.l1dAccess, "1/s");
    out.metric("cache.l2_access_per_s", rates.l2Access, "1/s");
    out.metric("trace.records_per_s", recordsPerSec, "1/s");
    out.metric("coherence.dir_ops_per_s", rates.directoryOp, "1/s");
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

void
emitCounts(Output &out, const Counts &c)
{
    out.metric("sim.ipc", ratio(c.instructions, c.cycles), "instr/cycle");
    out.metric("llc.accesses_per_kinstr",
               1000.0 * ratio(c.llcAccesses, c.instructions), "1/kinstr");
    out.metric("llc.demand_hit_rate", ratio(c.demandHits,
                                            c.demandAccesses),
               "fraction");
    out.metric("llc.victim_hit_frac", ratio(c.victimHits, c.demandHits),
               "fraction");
    out.metric("memory.dram_row_hit_rate",
               ratio(c.dramRowHits, c.dramRowAccesses), "fraction");
    out.metric("memory.funcmem_touched_lines",
               static_cast<double>(c.touchedLines), "lines");
    out.metric("cache.l1d_hit_rate", ratio(c.l1dHits, c.l1dAccesses),
               "fraction");
    out.metric("cache.l2_hit_rate", ratio(c.l2Hits, c.l2Accesses),
               "fraction");
}

/** Sizes that shrink in --smoke mode. */
struct Sizes
{
    unsigned minUnits;
    unsigned replayReps;
    std::size_t captureOps;
    std::uint64_t traceRecords;
};

Sizes
sizesFor(const Options &opt)
{
    return opt.smoke ? Sizes{1, 1, 20'000, 100'000}
                     : Sizes{3, 3, 250'000, 4'000'000};
}

double
sum(const std::vector<double> &values)
{
    double s = 0.0;
    for (const double v : values)
        s += v;
    return s;
}

/**
 * Fastest time seen at each position of a repeated sequence of timed
 * steps. Every unit of a run repeats identical work, and the host's
 * neighbours only ever slow a step down, so the sum of the per-position
 * minima is a unit's time with that interference filtered out, while
 * work that is slow every time it runs still counts in full.
 */
class BestTimes
{
  public:
    void add(const std::vector<double> &times)
    {
        if (best_.empty())
            best_ = times;
        panicIf(times.size() != best_.size(),
                "BestTimes: units differ in their number of steps");
        for (std::size_t k = 0; k < times.size(); ++k)
            best_[k] = std::min(best_[k], times[k]);
    }

    [[nodiscard]] double total() const { return sum(best_); }

  private:
    std::vector<double> best_;
};

// --- single-core and multi-core workloads ---

/** Instructions every core retired since construction. */
template <class S>
double
retired(S &sys)
{
    if constexpr (requires { sys.numCores(); }) {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < sys.numCores(); ++i)
            total += sys.core(CoreId{i}).retired();
        return static_cast<double>(total);
    } else {
        return static_cast<double>(sys.core().retired());
    }
}

/** True if every private line is LLC baseline content. */
template <class S>
bool
inclusive(S &sys)
{
    if constexpr (requires { sys.numCores(); }) {
        for (std::size_t i = 0; i < sys.numCores(); ++i)
            if (!sys.hierarchy(CoreId{i}).checkInclusion())
                return false;
        return true;
    } else {
        return sys.hierarchy().checkInclusion();
    }
}

/**
 * One unit: `unit.warmup` instructions, then `unit.measure` more as
 * run() calls of `unit.chunk` each (statistics reset per call; the
 * simulated state carries on). Returns each call's seconds.
 */
template <class S>
std::vector<double>
timedRun(S &sys, const Window &unit)
{
    std::vector<double> times;
    std::uint64_t warmup = unit.warmup;
    for (std::uint64_t done = 0; done < unit.measure; done += unit.chunk) {
        const Clock::time_point start = Clock::now();
        (void)sys.run(warmup, std::min(unit.chunk, unit.measure - done));
        times.push_back(secondsSince(start));
        warmup = 0;
    }
    return times;
}

/**
 * Run one unit on a system, then check it against the first unit's
 * digest (every unit is the same work) and for inclusion.
 */
template <class S>
std::vector<double>
checkedUnit(S &sys, const SimSpec &spec, std::string &first, Output &out,
            const char *what)
{
    const std::vector<double> times = timedRun(sys, spec.unit);
    const std::string digest = statsDigest(sys);
    if (first.empty())
        first = digest;
    out.attempt();
    out.check(digest == first, std::string(what) +
                  " statistics differ from the first unit's");
    out.check(inclusive(sys), std::string(what) +
                  ": a private cache holds a line the LLC does not");
    return times;
}

template <class Real, class Replica>
void
endToEnd(const SimSpec &spec, const Options &opt, Output &out)
{
    std::string first;
    BestTimes best;
    std::vector<double> setups;
    double instructions = 0.0;
    repeatFor(opt.seconds, sizesFor(opt).minUnits, [&](unsigned) {
        // Set-up: the suite, the configuration and the system, all
        // that comes before the first simulated instruction.
        const Clock::time_point start = Clock::now();
        const std::unique_ptr<Real> sys =
            build<Real>(makeSimSpec(*opt.workload, opt.seed, opt.smoke));
        setups.push_back(secondsSince(start));
        best.add(checkedUnit(*sys, spec, first, out, "unit"));
        instructions = retired(*sys);
    });
    const double rss = peakRssMib();

    // The same unit on the replica with the shadow checker on: every
    // LLC call is checked against an uncompressed mirror (the paper's
    // never-worse guarantee and structural invariants), and the
    // statistics must still equal the system's.
    {
        const ScopedEnv check("BVC_CHECK", "1");
        const std::unique_ptr<Replica> sys = build<Replica>(spec);
        checkedUnit(*sys, spec, first, out, "shadow-checked replica");
    }

    out.metric("sim_instr_per_s", instructions / best.total(), "instr/s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("setup_s", median(setups), "s");
    out.digest(first);
}

template <class Real, class Replica>
void
layers(const SimSpec &spec, const Options &opt, Output &out)
{
    const Sizes sizes = sizesFor(opt);
    std::string first;
    SpanTotals spans;
    BestTimes plainBest;
    BestTimes tracedBest;
    // Half the run goes to untraced/traced pairs, the rest to capture
    // and replay.
    const auto plain = [&] {
        const std::unique_ptr<Real> sys = build<Real>(spec);
        plainBest.add(checkedUnit(*sys, spec, first, out, "unit"));
    };
    const auto traced = [&](unsigned n) {
        SpanRecorder recorder(n == 0);
        const std::unique_ptr<Replica> sys =
            build<Replica>(spec, Taps{&recorder, nullptr});
        const std::vector<double> times =
            checkedUnit(*sys, spec, first, out, "traced replica");
        tracedBest.add(times);
        spans.addUnit({&recorder}, retired(*sys), sum(times));
        if (n == 0)
            recorder.writeCsv(opt.out + "/" + opt.workload->name +
                              ".spans.csv");
    };
    alternate(opt.seconds / 2, sizes.minUnits, plain, traced);

    Capture capture;
    capture.maxOps = sizes.captureOps;
    const std::unique_ptr<Replica> sys =
        build<Replica>(spec, Taps{nullptr, &capture});
    (void)sys->run(spec.unit.warmup, spec.captureMeasure);
    ReplayRates rates;
    replayLlc(spec.cfg, capture, sizes.replayReps, rates);
    out.attempt();
    out.check(rates.llcFaithful,
              "LLC replay hits differ from the captured run's");
    replayOthers(spec.cfg, capture, sys->pattern(), spec.traces.size(),
                 sizes.replayReps, rates);

    spans.emit(out, tracedBest.total() / plainBest.total() - 1.0);
    emitCapture(out, captureRatios(capture), rates,
                replayTrace(spec.traces, sizes.traceRecords,
                            sizes.replayReps));
    emitCounts(out, countsOf(*sys));
    out.digest(first);
}

template <class Real, class Replica>
void
runSim(const Options &opt, Output &out)
{
    const SimSpec spec = makeSimSpec(*opt.workload, opt.seed, opt.smoke);
    if (opt.traced)
        layers<Real, Replica>(spec, opt, out);
    else
        endToEnd<Real, Replica>(spec, opt, out);
}

// --- the sweep workload ---

/**
 * The sweep runs one worker thread. With four, a campaign's wall time
 * on a shared 4-vCPU virtual machine swung by over 10% between runs
 * with the neighbours' load, more than most code changes move it; the
 * engine, thread pool, journal and report all still run.
 */
constexpr unsigned kSweepThreads = 1;

struct SweepSpec
{
    std::vector<SweepJob> jobs; //!< trace-major: arches vary fastest
    std::vector<TraceParams> traces;
    std::uint64_t captureMeasure = 0;
};

SweepSpec
makeSweepSpec(const Options &opt)
{
    const Workload &w = *opt.workload;
    const Window unit = opt.smoke ? w.smoke : w.full;
    const WorkloadSuite suite;
    const std::vector<std::size_t> sensitive = suite.sensitiveIndices();
    SweepSpec spec;
    // Two cache-sensitive traces from different categories, every arch.
    for (const std::size_t idx :
         {sensitive.front(), sensitive[sensitive.size() / 2]})
        spec.traces.push_back(seeded(suite.all()[idx].params, opt.seed));
    ExperimentOptions eo;
    eo.warmup = unit.warmup;
    eo.measure = unit.measure;
    for (const TraceParams &trace : spec.traces) {
        for (const LlcArch arch : kArches) {
            SweepJob job;
            job.config = SystemConfig::benchDefaults();
            job.config.arch = arch;
            job.trace = trace;
            job.opts = eo;
            job.label = llcArchName(arch);
            spec.jobs.push_back(job);
        }
    }
    spec.captureMeasure = opt.smoke ? w.smoke.measure : w.captureMeasure;
    return spec;
}

struct Round
{
    /** Each job's seconds, then the rest of the round's wall time. */
    std::vector<double> times;
    std::vector<JobResult> results;
};

/**
 * One campaign: the jobs on the engine with a journal, then the report
 * built, serialized and written atomically. Checks every job finished,
 * the journal holds every result and the report round-trips.
 */
Round
runRound(const std::vector<SweepJob> &jobs, const Options &opt,
         std::string &first, Output &out)
{
    const std::string stem = opt.out + "/sweep." +
        std::to_string(::getpid());
    SweepOptions so;
    so.threads = kSweepThreads;
    so.journalPath = stem + ".journal";
    so.tool = "bvbench";
    SweepEngine engine(so);

    Round round;
    const Clock::time_point start = Clock::now();
    round.results = engine.run(jobs);
    SweepReport report = buildReport("bvbench", engine.lastTelemetry(),
                                     jobs, round.results);
    const std::string json = toJson(report);
    writeFileAtomic(stem + ".json", json);
    double rest = secondsSince(start);

    for (const JobResult &r : round.results) {
        round.times.push_back(r.wallSeconds);
        rest -= r.wallSeconds;
        out.attempt();
        out.check(r.ok, "job " + std::to_string(r.index) + " (" +
                      r.label + ", " + r.trace + ") failed: " + r.error);
    }
    round.times.push_back(rest);
    const JournalData journal = readJournal(so.journalPath);
    out.check(journal.results.size() == jobs.size(),
              "the journal holds " +
                  std::to_string(journal.results.size()) + " of " +
                  std::to_string(jobs.size()) + " results");
    for (const JobResult &r : journal.results)
        out.check(r.index < jobs.size() &&
                      sameRun(r.result, round.results[r.index].result),
                  "journal record " + std::to_string(r.index) +
                      " differs from the engine's result");
    out.check(toJson(parseJsonReport(readFile(stem + ".json"))) == json,
              "the written report does not parse back to itself");
    std::filesystem::remove(so.journalPath);
    std::filesystem::remove(stem + ".json");

    // Timings are the only part of a report that may differ between
    // runs of one campaign.
    zeroTimings(report);
    const std::string digest = fnv1aHex(toJson(report));
    if (first.empty())
        first = digest;
    out.check(digest == first,
              "campaign results differ from the first round's");
    return round;
}

double
roundInstructions(const std::vector<SweepJob> &jobs)
{
    double total = 0.0;
    for (const SweepJob &job : jobs)
        total += static_cast<double>(job.opts.warmup + job.opts.measure);
    return total;
}

void
sweepEndToEnd(const SweepSpec &spec, const Options &opt, Output &out)
{
    std::string first;
    BestTimes best;
    std::vector<double> setups;
    std::vector<JobResult> results;
    repeatFor(opt.seconds, sizesFor(opt).minUnits, [&](unsigned n) {
        // Set-up: the suite and the campaign's job list. A run has only
        // a few rounds, so each round sets up five times to give the
        // median enough samples past the first, cold ones.
        for (int k = 0; k < 5; ++k) {
            const Clock::time_point start = Clock::now();
            const SweepSpec built = makeSweepSpec(opt);
            setups.push_back(secondsSince(start));
        }
        Round round = runRound(spec.jobs, opt, first, out);
        best.add(round.times);
        if (n == 0)
            results = std::move(round.results);
    });
    const double rss = peakRssMib();

    // The first trace's jobs again, outside the engine, under the
    // shadow checker: the engine's results must equal them.
    {
        const ScopedEnv check("BVC_CHECK", "1");
        for (std::size_t i = 0; i < std::size(kArches); ++i) {
            const SweepJob &job = spec.jobs[i];
            out.attempt();
            out.check(sameRun(runTrace(job.config, job.trace, job.opts),
                              results[i].result),
                      "shadow-checked run of job " + std::to_string(i) +
                          " differs from the sweep's");
        }
    }

    out.metric("sim_instr_per_s", roundInstructions(spec.jobs) /
                   best.total(),
               "instr/s");
    out.metric("peak_rss_mib", rss, "MiB");
    out.metric("setup_s", median(setups), "s");
    out.digest(first);
}

void
sweepLayers(const SweepSpec &spec, const Options &opt, Output &out)
{
    const Sizes sizes = sizesFor(opt);
    const std::size_t nJobs = spec.jobs.size();
    std::string first;
    SpanTotals spans;
    BestTimes plainBest;
    BestTimes tracedBest;
    Counts counts;

    // Traced rounds run each job on a replica with its own recorder;
    // each job writes only its own slots.
    std::vector<std::unique_ptr<SpanRecorder>> recorders(nJobs);
    std::vector<double> jobSeconds(nJobs);
    std::vector<Counts> jobCounts(nJobs);
    std::vector<SweepJob> tracedJobs = spec.jobs;
    for (std::size_t i = 0; i < nJobs; ++i) {
        tracedJobs[i].fn = [&, i] {
            const SweepJob &job = spec.jobs[i];
            ReplicaSystem sys(job.config, job.trace,
                              Taps{recorders[i].get(), nullptr});
            const Clock::time_point start = Clock::now();
            const RunResult r = sys.run(job.opts.warmup, job.opts.measure);
            jobSeconds[i] = secondsSince(start);
            jobCounts[i] = countsOf(sys);
            return r;
        };
    }

    const auto plain = [&] {
        plainBest.add(runRound(spec.jobs, opt, first, out).times);
    };
    const auto traced = [&](unsigned n) {
        for (std::size_t i = 0; i < nJobs; ++i)
            recorders[i] = std::make_unique<SpanRecorder>(n == 0 && i == 0);
        tracedBest.add(runRound(tracedJobs, opt, first, out).times);
        std::vector<const SpanRecorder *> all;
        for (const auto &r : recorders)
            all.push_back(r.get());
        spans.addUnit(all, roundInstructions(spec.jobs), sum(jobSeconds));
        if (n == 0) {
            for (const Counts &c : jobCounts)
                counts += c;
            recorders[0]->writeCsv(opt.out + "/" + opt.workload->name +
                                   ".spans.csv");
        }
    };
    alternate(opt.seconds / 2, sizes.minUnits, plain, traced);

    // Each arch's LLC stream, captured from its own run of the first
    // trace, replays only through that arch; the other layers replay
    // the Base-Victim capture.
    ReplayRates rates;
    double llcOps = 0.0;
    double llcSeconds = 0.0;
    CaptureRatios ratios;
    for (std::size_t a = 0; a < std::size(kArches); ++a) {
        const SweepJob &job = spec.jobs[a];
        Capture capture;
        capture.maxOps = sizes.captureOps;
        ReplicaSystem sys(job.config, job.trace, Taps{nullptr, &capture});
        (void)sys.run(job.opts.warmup, spec.captureMeasure);
        ReplayRates archRates;
        replayLlc(job.config, capture, sizes.replayReps, archRates);
        out.attempt();
        out.check(archRates.llcFaithful,
                  std::string("LLC replay hits differ from the captured "
                              "run's for ") + llcArchName(kArches[a]));
        const auto ops =
            static_cast<double>(capture.llc.size() - capture.warmOps);
        llcOps += ops;
        llcSeconds += ops / archRates.llcAccess;
        if (kArches[a] == LlcArch::BaseVictim) {
            replayOthers(job.config, capture, sys.pattern(), 1,
                         sizes.replayReps, rates);
            ratios = captureRatios(capture);
        }
    }
    rates.llcAccess = llcOps / llcSeconds;

    spans.emit(out, tracedBest.total() / plainBest.total() - 1.0);
    emitCapture(out, ratios, rates,
                replayTrace(spec.traces, sizes.traceRecords,
                            sizes.replayReps));
    emitCounts(out, counts);
    out.digest(first);
}

void
runSweep(const Options &opt, Output &out)
{
    const SweepSpec spec = makeSweepSpec(opt);
    if (opt.traced)
        sweepLayers(spec, opt, out);
    else
        sweepEndToEnd(spec, opt, out);
}

} // namespace
} // namespace bvbench

int
main(int argc, char **argv)
{
    using namespace bvbench;
    const Options opt = parseArgs(argc, argv);
    const std::time_t started = std::time(nullptr);
    // Runs are measured as configured here, never as the caller's
    // environment would reconfigure them.
    ::unsetenv("BVC_CHECK");
    ::unsetenv("BVC_FAULT");
    std::filesystem::create_directories(opt.out);

    Output out(opt);
    try {
        switch (opt.workload->shape) {
          case Shape::SingleCore:
            runSim<System, ReplicaSystem>(opt, out);
            break;
          case Shape::MultiCore:
            runSim<MultiCoreSystem, ReplicaMultiCore>(opt, out);
            break;
          case Shape::Sweep:
            runSweep(opt, out);
            break;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bvbench: %s\n", e.what());
        return 1;
    }
    return out.finish(started);
}
