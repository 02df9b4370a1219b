/**
 * @file
 * Fault-tolerance contract of the sweep harness (src/runner/,
 * src/util/fault.hh, docs/robustness.md): the BVC_FAULT grammar
 * parses and rejects what the docs say, injected throws are retried
 * with deterministic backoff and keep their structured category, the
 * watchdog classifies stalled jobs as timeouts without killing the
 * campaign, the crash-safe journal round-trips results and rejects
 * corruption, and a campaign killed at a checkpoint boundary resumes
 * into a byte-identical report.
 */

#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "runner/journal.hh"
#include "runner/report.hh"
#include "runner/sweep.hh"
#include "util/error.hh"
#include "util/fault.hh"

using namespace bvc;

namespace
{

/** Scoped setenv/unsetenv so env-dependent tests can't leak state. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }

  private:
    const char *name_;
};

SweepJob
fnJob(const std::string &label, std::function<RunResult()> fn)
{
    SweepJob job;
    job.label = label;
    job.trace.name = "synthetic/" + label;
    job.fn = std::move(fn);
    return job;
}

/** A six-job campaign with distinct, deterministic metrics per job. */
std::vector<SweepJob>
campaign(std::atomic<std::size_t> *executed = nullptr)
{
    std::vector<SweepJob> jobs;
    for (std::size_t i = 0; i < 6; ++i)
        jobs.push_back(
            fnJob("job" + std::to_string(i), [i, executed] {
                if (executed != nullptr)
                    executed->fetch_add(1);
                RunResult r;
                r.instructions = 1000 + i;
                r.cycles = 2000 + 3 * i;
                r.ipc = 0.5 + 0.125 * static_cast<double>(i);
                r.dramReads = 10 * i;
                return r;
            }));
    return jobs;
}

/** Stable JSON (timings zeroed) of a finished campaign. */
std::string
stableJson(const std::string &tool, const SweepEngine &engine,
           const std::vector<SweepJob> &jobs,
           const std::vector<JobResult> &results)
{
    SweepReport report =
        buildReport(tool, engine.lastTelemetry(), jobs, results);
    zeroTimings(report);
    return toJson(report);
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "bvc_fault_" + name;
}

} // namespace

// Death tests come first: gtest's fork-based "fast" style is only
// safe before worker threads exist, and every engine run joins its
// pool before returning, so later forks in this suite stay safe too.
TEST(FaultInjectionDeathTest, DieAtBoundaryKillsAfterJournalingJob)
{
    const std::string path = tempPath("die.journal");
    const std::vector<SweepJob> jobs = campaign();

    EXPECT_EXIT(
        {
            SweepOptions opts;
            opts.threads = 1;
            opts.journalPath = path;
            opts.tool = "unit";
            opts.faults = FaultPlan::parse("die:job=2");
            SweepEngine engine(opts);
            engine.run(jobs);
        },
        ::testing::ExitedWithCode(kFaultDieExitCode), "");

    // The fault fires right after job 2's record is fsync'd, so with
    // one worker the journal must hold exactly jobs 0..2.
    const JournalData data = readJournal(path);
    EXPECT_EQ(data.tool, "unit");
    EXPECT_EQ(data.signature, campaignSignature(jobs));
    EXPECT_EQ(data.jobCount, jobs.size());
    ASSERT_EQ(data.results.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(data.results[i].index, i);
        EXPECT_TRUE(data.results[i].ok);
        EXPECT_EQ(data.results[i].result.instructions, 1000 + i);
    }
}

/** The acceptance pin: kill mid-campaign, resume, diff byte-for-byte. */
TEST(FaultInjectionDeathTest, ResumedCampaignMatchesUninterruptedRun)
{
    const std::string path = tempPath("resume.journal");
    std::atomic<std::size_t> executed{0};
    const std::vector<SweepJob> jobs = campaign(&executed);

    // Reference: the uninterrupted run. Thread count must match the
    // resumed run below — it is recorded in the report JSON.
    SweepOptions refOpts;
    refOpts.threads = 1;
    SweepEngine refEngine(refOpts);
    const std::vector<JobResult> refResults = refEngine.run(jobs);
    const std::string refJson =
        stableJson("unit", refEngine, jobs, refResults);
    executed.store(0);

    EXPECT_EXIT(
        {
            SweepOptions opts;
            opts.threads = 1;
            opts.journalPath = path;
            opts.tool = "unit";
            opts.faults = FaultPlan::parse("die:job=2");
            SweepEngine engine(opts);
            engine.run(jobs);
        },
        ::testing::ExitedWithCode(kFaultDieExitCode), "");

    SweepOptions resOpts;
    resOpts.threads = 1;
    resOpts.journalPath = path;
    resOpts.resume = true;
    resOpts.tool = "unit";
    SweepEngine resEngine(resOpts);
    const std::vector<JobResult> resResults = resEngine.run(jobs);

    // Jobs 0..2 came from the journal; only 3..5 were re-executed.
    EXPECT_EQ(resEngine.lastTelemetry().resumedJobs, 3u);
    EXPECT_EQ(executed.load(), 3u);
    EXPECT_EQ(stableJson("unit", resEngine, jobs, resResults), refJson);
}

/**
 * A kill that lands mid-write (not at the fsync boundary) leaves a
 * torn final record. Resume must drop it, re-run that job, and leave
 * a journal that parses cleanly — i.e. a second resume works too.
 */
TEST(FaultInjectionDeathTest, ResumeAfterTornFinalRecordReRunsTornJob)
{
    const std::string path = tempPath("torn_resume.journal");
    std::atomic<std::size_t> executed{0};
    const std::vector<SweepJob> jobs = campaign(&executed);

    SweepOptions refOpts;
    refOpts.threads = 1;
    SweepEngine refEngine(refOpts);
    const std::vector<JobResult> refResults = refEngine.run(jobs);
    const std::string refJson =
        stableJson("unit", refEngine, jobs, refResults);
    executed.store(0);

    EXPECT_EXIT(
        {
            SweepOptions opts;
            opts.threads = 1;
            opts.journalPath = path;
            opts.tool = "unit";
            opts.faults = FaultPlan::parse("die:job=2");
            SweepEngine engine(opts);
            engine.run(jobs);
        },
        ::testing::ExitedWithCode(kFaultDieExitCode), "");

    // Turn the boundary kill into a mid-write one: tear job 2's
    // record off the tail.
    const std::string content = readFile(path);
    writeFile(path, content.substr(0, content.size() - 5));

    SweepOptions resOpts;
    resOpts.threads = 1;
    resOpts.journalPath = path;
    resOpts.resume = true;
    resOpts.tool = "unit";
    SweepEngine resEngine(resOpts);
    const std::vector<JobResult> resResults = resEngine.run(jobs);

    // Jobs 0..1 came from the journal; torn job 2 re-ran with 3..5.
    EXPECT_EQ(resEngine.lastTelemetry().resumedJobs, 2u);
    EXPECT_EQ(executed.load(), 4u);
    EXPECT_EQ(stableJson("unit", resEngine, jobs, resResults), refJson);

    // The truncated-then-appended journal reads back whole: no CRC
    // mismatch where the torn bytes used to be.
    const JournalData data = readJournal(path);
    EXPECT_EQ(data.results.size(), jobs.size());
    EXPECT_EQ(data.validBytes, readFile(path).size());
}

TEST(FaultPlan, ParsesFullGrammar)
{
    const FaultPlan plan = FaultPlan::parse(
        "throw:job=2:attempt=1;stall:job=5:ms=300;die:job=7");
    ASSERT_EQ(plan.rules().size(), 3u);
    EXPECT_FALSE(plan.empty());

    unsigned stallMs = 0;
    EXPECT_EQ(plan.preAttempt(2, 1, stallMs), FaultKind::Throw);
    EXPECT_EQ(plan.preAttempt(2, 0, stallMs), FaultKind::None);
    EXPECT_EQ(plan.preAttempt(5, 0, stallMs), FaultKind::Stall);
    EXPECT_EQ(stallMs, 300u);
    EXPECT_EQ(plan.preAttempt(7, 0, stallMs), FaultKind::None);
    EXPECT_TRUE(plan.dieAtBoundary(7));
    EXPECT_FALSE(plan.dieAtBoundary(2));
    EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, RejectsBadSpecs)
{
    const std::vector<std::string> bad = {
        "nonsense",             // unknown action
        "throw",                // no job=
        "throw:attempt=1",      // still no job=
        "die:job=1:attempt=0",  // die fires at the boundary, not an
                                // attempt
        "throw:job=1:ms=5",     // ms is stall-only
        "throw:job=abc",        // not a number
        "stall:job=1:ms=",      // empty number
        "throw:job=1:oops=2",   // unknown field
    };
    for (const std::string &spec : bad) {
        try {
            (void)FaultPlan::parse(spec);
            FAIL() << "accepted bad spec: " << spec;
        } catch (const BvcError &e) {
            EXPECT_EQ(e.category(), ErrorCategory::Config) << spec;
            EXPECT_NE(std::string(e.what()).find("BVC_FAULT"),
                      std::string::npos)
                << spec;
        }
    }
}

TEST(FaultPlan, FromEnvReadsTheVariable)
{
    EXPECT_TRUE(FaultPlan::fromEnv().empty());
    ScopedEnv env("BVC_FAULT", "throw:job=0");
    const FaultPlan plan = FaultPlan::fromEnv();
    ASSERT_EQ(plan.rules().size(), 1u);
    EXPECT_EQ(plan.rules()[0].kind, FaultKind::Throw);
}

TEST(Retry, InjectedThrowIsRetriedToSuccess)
{
    std::atomic<std::size_t> calls{0};
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("flaky", [&calls] {
        calls.fetch_add(1);
        return RunResult{};
    }));

    SweepOptions opts;
    opts.threads = 1;
    opts.retries = 2;
    opts.backoffBaseSeconds = 0.001;
    opts.backoffCapSeconds = 0.002;
    // The fault fires before the job body, so the function itself
    // must run exactly once, on the third attempt.
    opts.faults =
        FaultPlan::parse("throw:job=0:attempt=0;throw:job=0:attempt=1");
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::None);
    EXPECT_EQ(calls.load(), 1u);
}

TEST(Retry, ExhaustedRetriesKeepTheInjectedCategory)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("doomed", [] { return RunResult{}; }));

    SweepOptions opts;
    opts.threads = 1;
    opts.retries = 1;
    opts.backoffBaseSeconds = 0.001;
    opts.backoffCapSeconds = 0.002;
    opts.faults =
        FaultPlan::parse("throw:job=0:attempt=0;throw:job=0:attempt=1");
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::Injected);
    EXPECT_NE(results[0].error.find("[injected]"), std::string::npos);
    EXPECT_NE(results[0].error.find("attempt 2"), std::string::npos);
}

TEST(Retry, ModelExceptionsAreClassifiedAndRetried)
{
    std::atomic<std::size_t> calls{0};
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("broken", [&calls]() -> RunResult {
        calls.fetch_add(1);
        throw std::runtime_error("simulated model bug");
    }));

    SweepOptions opts;
    opts.threads = 1;
    opts.retries = 2;
    opts.backoffBaseSeconds = 0.001;
    opts.backoffCapSeconds = 0.002;
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::Model);
    EXPECT_NE(results[0].error.find("simulated model bug"),
              std::string::npos);
}

TEST(Retry, BvcErrorCategoryIsPreserved)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("traceless", []() -> RunResult {
        throw BvcError(ErrorCategory::Trace, "bad trace tuple");
    }));

    SweepOptions opts;
    opts.threads = 1;
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::Trace);
    EXPECT_NE(results[0].error.find("[trace]"), std::string::npos);
}

TEST(Retry, NonStdExceptionTypeIsDemangled)
{
    struct WeirdFailure
    {
    };
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("weird", []() -> RunResult {
        throw WeirdFailure{};
    }));

    SweepOptions opts;
    opts.threads = 1;
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::Unknown);
    // The old engine reported "unknown exception"; the demangler must
    // now surface the actual type name.
    EXPECT_NE(results[0].error.find("WeirdFailure"), std::string::npos);
}

TEST(Watchdog, StalledJobIsClassifiedAsTimeout)
{
    std::vector<SweepJob> jobs;
    jobs.push_back(fnJob("stalled", [] { return RunResult{}; }));
    jobs.push_back(fnJob("healthy", [] {
        RunResult r;
        r.instructions = 7;
        return r;
    }));

    SweepOptions opts;
    opts.threads = 2;
    opts.retries = 2; // must NOT apply: timeouts are terminal
    opts.jobTimeoutSeconds = 0.05;
    opts.faults = FaultPlan::parse("stall:job=0:ms=400");
    SweepEngine engine(opts);
    const std::vector<JobResult> results = engine.run(jobs);

    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_EQ(results[0].errorCategory, ErrorCategory::Timeout);
    EXPECT_EQ(results[0].attempts, 1u);
    EXPECT_NE(results[0].error.find("[timeout]"), std::string::npos);
    EXPECT_NE(results[0].error.find("wall-clock budget"),
              std::string::npos);
    EXPECT_TRUE(results[1].ok);
    EXPECT_EQ(results[1].result.instructions, 7u);
    EXPECT_EQ(engine.lastTelemetry().timedOutJobs, 1u);
}

TEST(Backoff, DelayIsDeterministicJitteredAndCapped)
{
    const std::uint64_t seed = 0xb5c0ffee;
    const double d1 = backoffDelaySeconds(seed, 3, 1, 0.05, 2.0);
    const double d2 = backoffDelaySeconds(seed, 3, 1, 0.05, 2.0);
    EXPECT_EQ(d1, d2); // same inputs, same delay, on every host

    // Retry 1 jitters nominal base*2^0 into [50%, 100%] of itself.
    EXPECT_GE(d1, 0.025);
    EXPECT_LE(d1, 0.05);

    // Deep retries saturate at the cap (still jittered).
    const double deep = backoffDelaySeconds(seed, 3, 30, 0.05, 2.0);
    EXPECT_GE(deep, 1.0);
    EXPECT_LE(deep, 2.0);

    // The jitter stream is keyed on (seed, job, retry).
    EXPECT_NE(backoffDelaySeconds(seed, 4, 1, 0.05, 2.0), d1);
    EXPECT_NE(backoffDelaySeconds(seed + 1, 3, 1, 0.05, 2.0), d1);
}

TEST(Journal, RoundTripsJobResults)
{
    const std::string path = tempPath("roundtrip.journal");
    JobResult ok;
    ok.index = 0;
    ok.label = "base";
    ok.trace = "SPECFP/milc.0";
    ok.ok = true;
    ok.attempts = 1;
    ok.wallSeconds = 0.125;
    ok.result.instructions = (std::uint64_t{1} << 53) + 1;
    ok.result.ipc = 1.2345678901234567;
    JobResult bad;
    bad.index = 1;
    bad.label = "test";
    bad.trace = "SPECFP/milc.0";
    bad.ok = false;
    bad.error = "weird \"quoted\" error\nwith a newline";
    bad.errorCategory = ErrorCategory::Timeout;
    bad.attempts = 3;

    {
        JournalWriter writer(path, "unit", "deadbeef", 2);
        writer.append(ok);
        writer.append(bad);
    }

    const JournalData data = readJournal(path);
    EXPECT_EQ(data.tool, "unit");
    EXPECT_EQ(data.signature, "deadbeef");
    EXPECT_EQ(data.jobCount, 2u);
    ASSERT_EQ(data.results.size(), 2u);
    EXPECT_TRUE(data.results[0].ok);
    EXPECT_EQ(data.results[0].result.instructions,
              (std::uint64_t{1} << 53) + 1);
    EXPECT_EQ(data.results[0].result.ipc, ok.result.ipc);
    EXPECT_EQ(data.results[0].wallSeconds, 0.125);
    EXPECT_FALSE(data.results[1].ok);
    EXPECT_EQ(data.results[1].error, bad.error);
    EXPECT_EQ(data.results[1].errorCategory, ErrorCategory::Timeout);
    EXPECT_EQ(data.results[1].attempts, 3u);
}

TEST(Journal, CrcCorruptionIsRejectedWithByteOffset)
{
    const std::string path = tempPath("corrupt.journal");
    {
        JournalWriter writer(path, "unit", "deadbeef", 1);
        JobResult r;
        r.index = 0;
        r.label = "base";
        r.ok = true;
        r.attempts = 1;
        writer.append(r);
    }

    // Flip one payload byte of the final (complete) record.
    std::string content = readFile(path);
    ASSERT_GE(content.size(), 2u);
    content[content.size() - 2] ^= 1;
    writeFile(path, content);

    try {
        (void)readJournal(path);
        FAIL() << "corrupted journal was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
        EXPECT_NE(std::string(e.what()).find("byte"),
                  std::string::npos);
    }
}

TEST(Journal, CreateReplacesAnExistingFileWithAHeaderOnlyJournal)
{
    // Creation stages the header in `path`.tmp and renames it over
    // whatever was there, so the journal is never seen headerless.
    const std::string path = tempPath("replace.journal");
    writeFile(path, "stale bytes from an earlier campaign\n");
    {
        JournalWriter writer(path, "unit", "deadbeef", 3);
        const JournalData data = readJournal(path);
        EXPECT_EQ(data.signature, "deadbeef");
        EXPECT_EQ(data.jobCount, 3u);
        EXPECT_TRUE(data.results.empty());
    }
    EXPECT_NE(::access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(Journal, MalformedFramingIsRejected)
{
    const std::string path = tempPath("framing.journal");
    writeFile(path, "NOTAJOURNAL hello\n");
    try {
        (void)readJournal(path);
        FAIL() << "malformed journal was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Io);
    }
}

TEST(Journal, TornFinalRecordIsTolerated)
{
    const std::string path = tempPath("torn.journal");
    {
        JournalWriter writer(path, "unit", "deadbeef", 2);
        JobResult r;
        r.index = 0;
        r.label = "base";
        r.ok = true;
        r.attempts = 1;
        writer.append(r);
        r.index = 1;
        writer.append(r);
    }

    // A crash mid-write leaves a final record without its newline;
    // that record is lost, everything before it is recovered.
    std::string content = readFile(path);
    writeFile(path, content.substr(0, content.size() - 5));

    const JournalData data = readJournal(path);
    ASSERT_EQ(data.results.size(), 1u);
    EXPECT_EQ(data.results[0].index, 0u);
}

TEST(Journal, ResumeTruncatesTornTailBeforeAppending)
{
    const std::string path = tempPath("torn_append.journal");
    JobResult r;
    r.label = "base";
    r.ok = true;
    r.attempts = 1;
    {
        JournalWriter writer(path, "unit", "deadbeef", 2);
        r.index = 0;
        writer.append(r);
        r.index = 1;
        writer.append(r);
    }

    // Tear the final record, as a crash mid-write would.
    const std::string content = readFile(path);
    writeFile(path, content.substr(0, content.size() - 5));
    const JournalData torn = readJournal(path);
    ASSERT_EQ(torn.results.size(), 1u);

    // The resume writer must truncate the torn bytes away before
    // appending; otherwise the new record is glued onto them, forming
    // a frame whose CRC can never match and poisoning the journal for
    // any further resume.
    {
        JournalWriter writer(path, torn.validBytes);
        r.index = 1;
        r.label = "redo";
        writer.append(r);
    }

    const JournalData data = readJournal(path);
    EXPECT_EQ(data.validBytes, readFile(path).size());
    ASSERT_EQ(data.results.size(), 2u);
    EXPECT_EQ(data.results[0].index, 0u);
    EXPECT_EQ(data.results[1].index, 1u);
    EXPECT_EQ(data.results[1].label, "redo");
}

TEST(Journal, ResumeRefusesAForeignCampaign)
{
    JournalData data;
    data.tool = "unit";
    data.signature = "deadbeef";
    data.jobCount = 4;

    EXPECT_NO_THROW(
        checkResumeCompatible(data, "x.journal", "deadbeef", 4));
    try {
        checkResumeCompatible(data, "x.journal", "cafef00d", 4);
        FAIL() << "signature mismatch was accepted";
    } catch (const BvcError &e) {
        EXPECT_EQ(e.category(), ErrorCategory::Config);
    }
    EXPECT_THROW(checkResumeCompatible(data, "x.journal", "deadbeef", 5),
                 BvcError);
}

TEST(Journal, CampaignSignatureCoversJobIdentity)
{
    std::vector<SweepJob> jobs = campaign();
    const std::string sig = campaignSignature(jobs);
    EXPECT_EQ(sig.size(), 8u);
    EXPECT_EQ(campaignSignature(campaign()), sig);

    std::vector<SweepJob> relabeled = campaign();
    relabeled[3].label = "renamed";
    EXPECT_NE(campaignSignature(relabeled), sig);

    std::vector<SweepJob> retraced = campaign();
    retraced[0].trace.name = "synthetic/other";
    EXPECT_NE(campaignSignature(retraced), sig);

    std::vector<SweepJob> rewindowed = campaign();
    rewindowed[5].opts.measure += 1;
    EXPECT_NE(campaignSignature(rewindowed), sig);

    // Labels are often bare arch names, so the configuration itself
    // must be part of the identity: a resume under a different
    // --llc-kb/--ways/--arch must be refused, not silently imported.
    std::vector<SweepJob> resized = campaign();
    resized[1].config.llcBytes *= 2;
    EXPECT_NE(campaignSignature(resized), sig);

    std::vector<SweepJob> rewayed = campaign();
    rewayed[1].config.llcWays /= 2;
    EXPECT_NE(campaignSignature(rewayed), sig);

    std::vector<SweepJob> rearched = campaign();
    rearched[2].config.arch = LlcArch::BaseVictim;
    EXPECT_NE(campaignSignature(rearched), sig);

    std::vector<SweepJob> recompressed = campaign();
    recompressed[2].config.compressor = CompressorKind::Fpc;
    EXPECT_NE(campaignSignature(recompressed), sig);

    // The trace name is only a tag; the generated stream is defined
    // by the parameters, so those count too.
    std::vector<SweepJob> reseeded = campaign();
    reseeded[0].trace.seed += 1;
    EXPECT_NE(campaignSignature(reseeded), sig);

    std::vector<SweepJob> repatterned = campaign();
    repatterned[0].trace.pattern = DataPatternKind::Zeros;
    EXPECT_NE(campaignSignature(repatterned), sig);
}

TEST(Journal, ResumeOfCompleteJournalExecutesNothing)
{
    const std::string path = tempPath("complete.journal");
    std::atomic<std::size_t> executed{0};
    const std::vector<SweepJob> jobs = campaign(&executed);

    SweepOptions first;
    first.threads = 2;
    first.journalPath = path;
    first.tool = "unit";
    SweepEngine firstEngine(first);
    const std::vector<JobResult> ref = firstEngine.run(jobs);
    EXPECT_EQ(executed.load(), jobs.size());
    executed.store(0);

    SweepOptions second;
    second.threads = 2;
    second.journalPath = path;
    second.resume = true;
    second.tool = "unit";
    SweepEngine secondEngine(second);
    const std::vector<JobResult> res = secondEngine.run(jobs);

    EXPECT_EQ(executed.load(), 0u);
    EXPECT_EQ(secondEngine.lastTelemetry().resumedJobs, jobs.size());
    EXPECT_EQ(stableJson("unit", secondEngine, jobs, res),
              stableJson("unit", firstEngine, jobs, ref));
}
