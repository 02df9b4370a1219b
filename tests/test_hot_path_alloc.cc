/**
 * @file
 * Allocation budget of the steady-state access path. This binary
 * replaces the global operator new/delete with counting versions, warms
 * a System up on SPECFP/cactusADM.0, then counts the allocations of one
 * 100k-instruction run() window. The path used to allocate about twice
 * per simulated instruction (panicIf message strings, one hash node per
 * functional-memory line, two vectors per LLC result); the budget only
 * leaves room for run()'s own per-window bookkeeping, such as the
 * statistics snapshot looking counters up by name.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "sim/system.hh"
#include "trace/workload_suite.hh"

namespace
{

std::atomic<std::size_t> gAllocations{0};

void *
countedAlloc(std::size_t bytes)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

} // namespace

// The nothrow forms are replaced too: a sanitizer runtime supplies its
// own, whose memory must not reach these free()-based deletes.
// Over-aligned new is not counted; nothing in the tree allocates
// over-aligned types.
void *operator new(std::size_t bytes) { return countedAlloc(bytes); }
void *operator new[](std::size_t bytes) { return countedAlloc(bytes); }
void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes == 0 ? 1 : bytes);
}
void *
operator new[](std::size_t bytes, const std::nothrow_t &tag) noexcept
{
    return operator new(bytes, tag);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace bvc
{
namespace
{

constexpr std::uint64_t kWarmup = 200000;
constexpr std::uint64_t kWindow = 100000;
/** Allocations one window may make; none of them per access. */
constexpr std::size_t kBudget = 64;

struct ArchCase
{
    const char *name; //!< test-name suffix
    LlcArch arch;     //!< organization under test
    bool inclusive;   //!< SystemConfig::llcInclusive
    const char *why;  //!< why it is exempt (known exceptions only)
};

void
PrintTo(const ArchCase &c, std::ostream *os)
{
    *os << c.name;
}

/** Allocations made by one measured window after the warmup. */
std::size_t
windowAllocations(const ArchCase &c)
{
    // The lockstep shadow checker allocates per access by design; the
    // budget is about the simulator, so these systems run without it.
    ::setenv("BVC_CHECK", "0", 1);
    SystemConfig cfg = SystemConfig::benchDefaults();
    cfg.arch = c.arch;
    cfg.llcInclusive = c.inclusive;
    const WorkloadSuite suite;
    TraceParams trace;
    for (const WorkloadInfo &info : suite.all())
        if (info.params.name == "SPECFP/cactusADM.0")
            trace = info.params;
    EXPECT_EQ(trace.name, "SPECFP/cactusADM.0");

    System sys(cfg, trace);
    sys.run(kWarmup, 0);
    const std::size_t before = gAllocations.load();
    sys.run(0, kWindow);
    return gAllocations.load() - before;
}

std::string
caseName(const ::testing::TestParamInfo<ArchCase> &info)
{
    return info.param.name;
}

class HotPathAlloc : public ::testing::TestWithParam<ArchCase>
{
};

TEST_P(HotPathAlloc, SteadyStateWindowStaysWithinBudget)
{
    EXPECT_LE(windowAllocations(GetParam()), kBudget)
        << GetParam().name << ": allocations in a " << kWindow
        << "-instruction window";
}

INSTANTIATE_TEST_SUITE_P(
    AllocationFree, HotPathAlloc,
    ::testing::Values(
        ArchCase{"Uncompressed", LlcArch::Uncompressed, true, ""},
        ArchCase{"TwoTagNaive", LlcArch::TwoTagNaive, true, ""},
        ArchCase{"BaseVictim", LlcArch::BaseVictim, true, ""},
        ArchCase{"BaseVictimNonInclusive", LlcArch::BaseVictim, false,
                 ""}),
    caseName);

/**
 * Known exceptions: measured and reported, not held to the budget
 * until their eviction paths stop allocating.
 */
class HotPathAllocException : public ::testing::TestWithParam<ArchCase>
{
};

TEST_P(HotPathAllocException, Reported)
{
    const std::size_t n = windowAllocations(GetParam());
    GTEST_SKIP() << GetParam().name << " made " << n
                 << " allocations in the window: " << GetParam().why;
}

INSTANTIATE_TEST_SUITE_P(
    KnownExceptions, HotPathAllocException,
    ::testing::Values(
        ArchCase{"TwoTagModified", LlcArch::TwoTagModified, true,
                 "preferredVictims() returns a fresh vector on every "
                 "eviction"},
        ArchCase{"VSC", LlcArch::Vsc, true,
                 "rank() builds the whole victim order on every "
                 "eviction, and a fill can evict more lines than "
                 "BlockList holds inline"},
        ArchCase{"DCC", LlcArch::Dcc, true,
                 "rank() builds the whole victim order on every "
                 "eviction, and a super-block eviction reports up to "
                 "four lines"}),
    caseName);

} // namespace
} // namespace bvc
