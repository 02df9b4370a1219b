/** @file Tests for the OOO core timing model. */

#include <gtest/gtest.h>

#include <deque>

#include "compress/bdi.hh"
#include "core/uncompressed_llc.hh"
#include "cpu/ooo_core.hh"
#include "trace/data_patterns.hh"

namespace bvc
{
namespace
{

/** Hand-scripted trace for deterministic core tests. */
class ScriptedTrace : public TraceSource
{
  public:
    void
    add(InstrKind kind, Addr addr = 0, bool dep = false)
    {
        TraceRecord r;
        r.pc = 0x1000;
        r.addr = addr;
        r.kind = kind;
        r.dependsOnPrevLoad = dep;
        script_.push_back(r);
    }

    void
    addLoop(InstrKind kind, unsigned count)
    {
        for (unsigned i = 0; i < count; ++i)
            add(kind);
    }

    bool
    next(TraceRecord &record) override
    {
        if (pos_ >= script_.size())
            return false;
        record = script_[pos_++];
        return true;
    }

    void reset() override { pos_ = 0; }
    std::string name() const override { return "scripted"; }

  private:
    std::vector<TraceRecord> script_;
    std::size_t pos_ = 0;
};

struct CoreFixture
{
    CoreFixture()
        : mem_(),
          llc_(64 * 1024, 8, ReplacementKind::Nru)
    {
        HierarchyConfig cfg;
        cfg.l1iBytes = 8 * 1024;
        cfg.l1dBytes = 8 * 1024;
        cfg.l2Bytes = 32 * 1024;
        cfg.prefetch = false;
        hier_ = std::make_unique<Hierarchy>(cfg, llc_, dram_, mem_);
        CoreConfig coreCfg;
        coreCfg.modelIfetch = false; // keep arithmetic exact
        core_ = std::make_unique<OooCore>(coreCfg, *hier_);
    }

    FunctionalMemory mem_;
    Dram dram_;
    UncompressedLlc llc_;
    std::unique_ptr<Hierarchy> hier_;
    std::unique_ptr<OooCore> core_;
};

TEST(OooCore, NonMemIpcEqualsFetchWidth)
{
    CoreFixture f;
    ScriptedTrace trace;
    trace.addLoop(InstrKind::NonMem, 10000);
    const CoreResult result = f.core_->run(trace, 10000);
    EXPECT_EQ(result.instructions, 10000u);
    EXPECT_NEAR(result.ipc, 4.0, 0.05);
}

TEST(OooCore, StopsAtTraceEnd)
{
    CoreFixture f;
    ScriptedTrace trace;
    trace.addLoop(InstrKind::NonMem, 100);
    const CoreResult result = f.core_->run(trace, 100000);
    EXPECT_EQ(result.instructions, 100u);
}

TEST(OooCore, IndependentLoadsOverlap)
{
    CoreFixture f;
    ScriptedTrace trace;
    // 64 independent loads to distinct lines, all L1 misses -> DRAM.
    for (unsigned i = 0; i < 64; ++i)
        trace.add(InstrKind::Load, 0x100000 + i * kLineBytes);
    const CoreResult result = f.core_->run(trace, 64);
    // With overlap, total cycles are far below 64 serialized misses.
    EXPECT_LT(result.cycles, 64ull * 150);
}

TEST(OooCore, DependentLoadsSerialize)
{
    auto runChain = [](bool dependent) {
        CoreFixture f;
        ScriptedTrace trace;
        for (unsigned i = 0; i < 64; ++i)
            trace.add(InstrKind::Load, 0x100000 + i * kLineBytes,
                      dependent);
        return f.core_->run(trace, 64).cycles;
    };
    const Cycle independent = runChain(false);
    const Cycle dependent = runChain(true);
    // Sequential lines already serialize partly on the banks/bus, so
    // the dependent chain is slower but not by the full miss latency.
    EXPECT_GT(dependent, independent * 2);
}

TEST(OooCore, RobLimitsInFlightWindow)
{
    // A long-latency load far in the past must stall fetch once the
    // window wraps (224 instructions later).
    CoreFixture f;
    ScriptedTrace trace;
    trace.add(InstrKind::Load, 0x200000); // DRAM miss
    trace.addLoop(InstrKind::NonMem, 1000);
    f.core_->run(trace, 1001);
    EXPECT_GE(f.core_->stats().get("rob_stall_events"), 1u);
}

TEST(OooCore, StoresDoNotBlockRetirement)
{
    CoreFixture f;
    ScriptedTrace trace;
    for (unsigned i = 0; i < 64; ++i)
        trace.add(InstrKind::Store, 0x300000 + i * kLineBytes);
    const CoreResult result = f.core_->run(trace, 64);
    // Stores complete in one cycle via the store buffer.
    EXPECT_LT(result.cycles, 100u);
    EXPECT_EQ(f.core_->stats().get("stores"), 64u);
}

TEST(OooCore, CachedLoadsRunNearFullWidth)
{
    CoreFixture f;
    ScriptedTrace trace;
    // Warm one line, then hammer it.
    for (unsigned i = 0; i < 2000; ++i)
        trace.add(InstrKind::Load, 0x10000);
    f.core_->run(trace, 1000); // warm
    trace.reset();
    const CoreResult result = f.core_->run(trace, 2000);
    EXPECT_GT(result.ipc, 2.0);
}

TEST(OooCore, BeginMeasurementExcludesWarmup)
{
    CoreFixture f;
    ScriptedTrace trace;
    trace.add(InstrKind::Load, 0x400000); // expensive first miss
    trace.addLoop(InstrKind::NonMem, 4000);
    for (unsigned i = 0; i < 1001; ++i)
        f.core_->step(trace);
    f.core_->beginMeasurement();
    for (unsigned i = 0; i < 3000; ++i)
        f.core_->step(trace);
    const CoreResult result = f.core_->result();
    EXPECT_EQ(result.instructions, 3000u);
    EXPECT_EQ(f.core_->measuredInstructions(), 3000u);
    EXPECT_NEAR(result.ipc, 4.0, 0.1);
}

TEST(OooCoreDeathTest, RejectsAnEmptyRob)
{
    CoreFixture f;
    CoreConfig cfg;
    cfg.robSize = 0;
    EXPECT_DEATH(OooCore(cfg, *f.hier_), "robSize must be positive");
}

TEST(OooCore, RetiredCountsAllSteps)
{
    CoreFixture f;
    ScriptedTrace trace;
    trace.addLoop(InstrKind::NonMem, 50);
    while (f.core_->step(trace)) {
    }
    EXPECT_EQ(f.core_->retired(), 50u);
}

} // namespace
} // namespace bvc
