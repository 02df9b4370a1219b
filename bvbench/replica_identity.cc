/**
 * @file
 * Replica identity check, run as a ctest: for every single- and
 * multi-core bvbench workload at --smoke size, the replica stack the
 * benchmark assembles must produce byte-identical StatGroup dumps to
 * the real System / MultiCoreSystem with its taps off, with spans on
 * and with stream capture on. Otherwise the traced run would not be
 * measuring the program the untraced run measures. Exits 1 on any
 * difference.
 */

#include <cstdio>
#include <string>

#include "workloads.hh"

namespace
{

using namespace bvbench;

template <class Real, class Replica>
bool
identical(const Workload &w, std::uint64_t seed)
{
    const SimSpec spec = makeSimSpec(w, seed, /*smoke=*/true);
    const auto dump = [&](auto &sys) {
        (void)sys.run(spec.unit.warmup, spec.unit.measure);
        return statsDump(sys);
    };
    const std::string want = dump(*build<Real>(spec));

    SpanRecorder spans;
    Capture capture;
    capture.maxOps = 1'000'000;
    const struct
    {
        const char *label;
        Taps taps;
    } variants[] = {
        {"taps off", Taps{}},
        {"spans on", Taps{&spans, nullptr}},
        {"capture on", Taps{nullptr, &capture}},
    };
    bool ok = true;
    for (const auto &v : variants) {
        if (dump(*build<Replica>(spec, v.taps)) == want)
            continue;
        std::fprintf(stderr, "%s seed %llu: replica with %s differs\n",
                     w.name, static_cast<unsigned long long>(seed),
                     v.label);
        ok = false;
    }
    return ok;
}

} // namespace

int
main()
{
    bool ok = true;
    for (const Workload &w : kWorkloads) {
        for (const std::uint64_t seed : {0u, 7u}) {
            if (w.shape == Shape::SingleCore)
                ok = identical<System, ReplicaSystem>(w, seed) && ok;
            else if (w.shape == Shape::MultiCore)
                ok = identical<MultiCoreSystem, ReplicaMultiCore>(w, seed) &&
                    ok;
        }
    }
    std::printf("replica identity: %s\n", ok ? "ok" : "FAILED");
    return ok ? 0 : 1;
}
