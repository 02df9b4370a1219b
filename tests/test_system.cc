/** @file End-to-end single-core system tests. */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/workload_suite.hh"

namespace bvc
{
namespace
{

TraceParams
quickTrace()
{
    const WorkloadSuite suite;
    // A compression-friendly cache-sensitive trace.
    return suite.all()[suite.friendlyIndices().front()].params;
}

TEST(System, ProducesPlausibleIpc)
{
    System system(SystemConfig::benchDefaults(), quickTrace());
    const RunResult result = system.run(20000, 50000);
    EXPECT_EQ(result.instructions, 50000u);
    EXPECT_GT(result.ipc, 0.01);
    EXPECT_LT(result.ipc, 4.0);
    EXPECT_GT(result.llcDemandAccesses, 0u);
    EXPECT_GT(result.dramReads, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const SystemConfig cfg = SystemConfig::benchDefaults();
    System a(cfg, quickTrace());
    System b(cfg, quickTrace());
    const RunResult ra = a.run(10000, 30000);
    const RunResult rb = b.run(10000, 30000);
    EXPECT_DOUBLE_EQ(ra.ipc, rb.ipc);
    EXPECT_EQ(ra.dramReads, rb.dramReads);
    EXPECT_EQ(ra.llcDemandHits, rb.llcDemandHits);
}

TEST(System, BaseVictimNeverHasMoreDemandMisses)
{
    SystemConfig base = SystemConfig::benchDefaults();
    SystemConfig bv = base;
    bv.arch = LlcArch::BaseVictim;
    const TraceParams trace = quickTrace();
    System sysBase(base, trace);
    System sysBv(bv, trace);
    const RunResult rb = sysBase.run(20000, 60000);
    const RunResult rv = sysBv.run(20000, 60000);
    // The paper's guarantee, end-to-end through the full hierarchy.
    EXPECT_LE(rv.llcDemandMisses, rb.llcDemandMisses);
    EXPECT_GT(rv.llcVictimHits, 0u);
}

TEST(System, CompressedArchesSeeExtraLatencyOnly)
{
    // On an incompressible workload the Base-Victim cache behaves like
    // the baseline but pays tag latency: IPC within a whisker.
    const WorkloadSuite suite;
    const TraceParams trace =
        suite.all()[suite.unfriendlyIndices().front()].params;
    SystemConfig base = SystemConfig::benchDefaults();
    SystemConfig bv = base;
    bv.arch = LlcArch::BaseVictim;
    System sysBase(base, trace);
    System sysBv(bv, trace);
    const RunResult rb = sysBase.run(20000, 60000);
    const RunResult rv = sysBv.run(20000, 60000);
    EXPECT_LE(rv.llcDemandMisses, rb.llcDemandMisses);
    EXPECT_GT(rv.ipc, rb.ipc * 0.95);
}

TEST(System, LlcScaleAddsWaysAndLatency)
{
    const SystemConfig base = SystemConfig::benchDefaults();
    const SystemConfig big = base.withLlcScale(1.5);
    EXPECT_EQ(big.llcWays, 24u);
    EXPECT_EQ(big.llcBytes, base.llcBytes * 3 / 2);
    EXPECT_EQ(big.hier.llcLatency, base.hier.llcLatency + 1);
    const SystemConfig same = base.withLlcScale(1.0);
    EXPECT_EQ(same.llcBytes, base.llcBytes);
    EXPECT_EQ(same.hier.llcLatency, base.hier.llcLatency);
}

TEST(System, PaperDefaultsMatchSectionV)
{
    const SystemConfig cfg = SystemConfig::paperDefaults();
    EXPECT_EQ(cfg.llcBytes, 2u * 1024 * 1024);
    EXPECT_EQ(cfg.llcWays, 16u);
    EXPECT_EQ(cfg.hier.l1dBytes, 32u * 1024);
    EXPECT_EQ(cfg.hier.l2Bytes, 256u * 1024);
    EXPECT_EQ(cfg.hier.l1Latency, 3u);
    EXPECT_EQ(cfg.hier.l2Latency, 10u);
    EXPECT_EQ(cfg.hier.llcLatency, 24u);
    EXPECT_EQ(cfg.dramTiming.tCl, 15u);
    EXPECT_EQ(cfg.dramTiming.tRas, 34u);
}

TEST(System, BenchDefaultsPreserveCapacityRatios)
{
    const SystemConfig bench = SystemConfig::benchDefaults();
    const SystemConfig paper = SystemConfig::paperDefaults();
    EXPECT_EQ(paper.llcBytes / bench.llcBytes,
              paper.hier.l2Bytes / bench.hier.l2Bytes);
    EXPECT_EQ(paper.llcBytes / bench.llcBytes,
              paper.hier.l1dBytes / bench.hier.l1dBytes);
}

TEST(System, AllArchitecturesRunAllAccessTypes)
{
    for (const LlcArch arch :
         {LlcArch::Uncompressed, LlcArch::TwoTagNaive,
          LlcArch::TwoTagModified, LlcArch::BaseVictim, LlcArch::Vsc}) {
        SystemConfig cfg = SystemConfig::benchDefaults();
        cfg.arch = arch;
        System system(cfg, quickTrace());
        const RunResult result = system.run(5000, 20000);
        EXPECT_GT(result.ipc, 0.0) << llcArchName(arch);
    }
}

TEST(System, SnapshotMatchesRunResult)
{
    System system(SystemConfig::benchDefaults(), quickTrace());
    const RunResult fromRun = system.run(5000, 20000);
    const RunResult fromSnapshot = system.snapshot();
    EXPECT_EQ(fromRun.dramReads, fromSnapshot.dramReads);
    EXPECT_EQ(fromRun.llcDemandHits, fromSnapshot.llcDemandHits);
    EXPECT_DOUBLE_EQ(fromRun.ipc, fromSnapshot.ipc);
}

TEST(System, PaperScaleRunsEndToEnd)
{
    // Smoke-test the full paper-sized configuration (2MB LLC) with
    // paper-scaled footprints; short window, but the whole machinery
    // (hierarchy, prefetchers, DRAM, Base-Victim LLC) must hold up.
    const WorkloadSuite suite(2 * 1024 * 1024);
    SystemConfig cfg = SystemConfig::paperDefaults();
    cfg.arch = LlcArch::BaseVictim;
    System system(cfg, suite.all()[suite.friendlyIndices()[2]].params);
    const RunResult result = system.run(20000, 50000);
    EXPECT_GT(result.ipc, 0.0);
    EXPECT_GT(result.llcDemandAccesses, 0u);
}

TEST(System, NonInclusiveBaseVictimRunsEndToEnd)
{
    // Section IV.B.3 operation through the full hierarchy: dirty
    // victims park, writeback misses allocate, nothing panics.
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::BaseVictim;
    cfg.llcInclusive = false;
    System system(cfg, quickTrace());
    const RunResult result = system.run(20000, 60000);
    EXPECT_GT(result.ipc, 0.0);

    SystemConfig base = SystemConfig::benchDefaults();
    System baseSystem(base, quickTrace());
    const RunResult rb = baseSystem.run(20000, 60000);
    // Dirty victims parked instead of written back: writes drop.
    EXPECT_LE(result.dramWrites, rb.dramWrites);
}

TEST(SystemDeathTest, NonInclusiveRequiresBaseVictim)
{
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = LlcArch::TwoTagNaive;
    cfg.llcInclusive = false;
    EXPECT_EXIT(System(cfg, quickTrace()),
                ::testing::ExitedWithCode(1), "non-inclusive");
}

TEST(Experiment, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(ExperimentDeathTest, GeomeanRejectsNonPositiveValues)
{
    EXPECT_DEATH(geomean({2.0, 0.0}),
                 "geomean requires finite positive values, got 0.000000");
    EXPECT_DEATH(geomean({-1.5}),
                 "geomean requires finite positive values, got -1.500000");
}

TEST(Experiment, CountBelowThreshold)
{
    std::vector<TraceRatio> ratios(3);
    ratios[0].ipcRatio = 0.9;
    ratios[1].ipcRatio = 1.1;
    ratios[2].ipcRatio = 0.99;
    EXPECT_EQ(countBelow(ratios, 1.0), 2u);
}

TEST(Experiment, OptionsFromEnvDefaults)
{
    // Without env overrides, sane defaults apply.
    const ExperimentOptions opts = ExperimentOptions::fromEnv();
    EXPECT_GT(opts.warmup, 0u);
    EXPECT_GT(opts.measure, 0u);
}

TEST(Experiment, CompareOnSuiteProducesRatios)
{
    const WorkloadSuite suite;
    SystemConfig base = SystemConfig::benchDefaults();
    SystemConfig bv = base;
    bv.arch = LlcArch::BaseVictim;
    ExperimentOptions opts;
    opts.warmup = 5000;
    opts.measure = 15000;
    const std::vector<std::size_t> indices = {
        suite.friendlyIndices()[0], suite.friendlyIndices()[1]};
    const auto ratios = compareOnSuite(base, bv, suite, indices, opts);
    ASSERT_EQ(ratios.size(), 2u);
    for (const TraceRatio &r : ratios) {
        EXPECT_GT(r.ipcRatio, 0.0);
        EXPECT_GT(r.dramReadRatio, 0.0);
        EXPECT_FALSE(r.name.empty());
    }
}

} // namespace
} // namespace bvc
