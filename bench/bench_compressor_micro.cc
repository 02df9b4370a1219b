/**
 * @file
 * google-benchmark microbenchmarks of the compression codecs: single-
 * line compress/decompress throughput per algorithm and data pattern,
 * plus the allocation-free size-only path (Compressor::compressedBytes)
 * the cache models run on. Not a paper figure, but grounds the 2-cycle
 * decompression-latency assumption (Section V) in the codecs' actual
 * work per line.
 *
 * sizeOne repeats one line, so the branch predictor learns it and the
 * timing is that line's best case. sizeDistinct cycles through 4,096
 * distinct lines of one pattern, filled before timing, which is what
 * the cache models see.
 *
 * Run with --smoke for a self-contained encode-path vs size-path
 * comparison over a mixed corpus (used by CI): prints per-codec
 * throughput and speedup, then BDI's size-path ns/line per data
 * pattern over distinct lines, and exits non-zero if the two paths
 * ever disagree on a size.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <vector>

#include "compress/factory.hh"
#include "trace/data_patterns.hh"

namespace
{

using bvc::kLineBytes;

std::array<std::uint8_t, kLineBytes>
lineFor(bvc::DataPatternKind kind)
{
    const bvc::DataPattern pattern(kind, 7);
    std::array<std::uint8_t, kLineBytes> line{};
    pattern.fillLine(0x40 * 123, line.data());
    return line;
}

void
compressOne(benchmark::State &state, bvc::CompressorKind kind,
            bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto line = lineFor(pattern);
    for (auto _ : state) {
        auto block = comp->compress(line.data());
        benchmark::DoNotOptimize(block);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

void
sizeOne(benchmark::State &state, bvc::CompressorKind kind,
        bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto line = lineFor(pattern);
    for (auto _ : state) {
        auto bytes = comp->compressedBytes(line.data());
        benchmark::DoNotOptimize(bytes);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

/** Lines per pattern in the distinct-lines size benchmarks. */
constexpr std::size_t kDistinctLines = 4096;

std::vector<std::array<std::uint8_t, kLineBytes>>
distinctLines(bvc::DataPatternKind kind)
{
    const bvc::DataPattern pattern(kind, 7);
    std::vector<std::array<std::uint8_t, kLineBytes>> lines(kDistinctLines);
    for (std::size_t i = 0; i < lines.size(); ++i)
        pattern.fillLine(static_cast<bvc::Addr>(i) * kLineBytes,
                         lines[i].data());
    return lines;
}

void
sizeDistinct(benchmark::State &state, bvc::CompressorKind kind,
             bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto lines = distinctLines(pattern);
    std::size_t i = 0;
    for (auto _ : state) {
        auto bytes = comp->compressedBytes(lines[i].data());
        benchmark::DoNotOptimize(bytes);
        i = (i + 1) % kDistinctLines;
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

void
roundTripOne(benchmark::State &state, bvc::CompressorKind kind,
             bvc::DataPatternKind pattern)
{
    const auto comp = bvc::makeCompressor(kind);
    const auto line = lineFor(pattern);
    std::array<std::uint8_t, kLineBytes> out{};
    for (auto _ : state) {
        const auto block = comp->compress(line.data());
        comp->decompress(block, out.data());
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) * kLineBytes);
}

constexpr bvc::DataPatternKind kAllPatterns[] = {
    bvc::DataPatternKind::Zeros,      bvc::DataPatternKind::SmallInts,
    bvc::DataPatternKind::PointerHeap, bvc::DataPatternKind::NarrowInts,
    bvc::DataPatternKind::Floats,     bvc::DataPatternKind::Random,
    bvc::DataPatternKind::MixedGood,  bvc::DataPatternKind::MixedPoor,
};

/** Mixed corpus spanning every data pattern (what the traces produce). */
std::vector<std::array<std::uint8_t, kLineBytes>>
mixedCorpus()
{
    std::vector<std::array<std::uint8_t, kLineBytes>> corpus;
    for (const auto kind : kAllPatterns) {
        const bvc::DataPattern pattern(kind, 42);
        for (unsigned i = 0; i < 256; ++i) {
            std::array<std::uint8_t, kLineBytes> line{};
            pattern.fillLine(static_cast<bvc::Addr>(i) * kLineBytes,
                             line.data());
            corpus.push_back(line);
        }
    }
    return corpus;
}

/**
 * Encode-path vs size-path comparison over the mixed corpus. Returns
 * false if compressedBytes() ever disagrees with compress().
 */
bool
runSmoke()
{
    using Clock = std::chrono::steady_clock;
    const auto corpus = mixedCorpus();
    const int passes = 200;
    bool ok = true;

    std::printf("%-10s %14s %14s %9s\n", "codec", "encode MB/s",
                "size MB/s", "speedup");
    for (const auto kind : bvc::allCompressorKinds()) {
        const auto comp = bvc::makeCompressor(kind);

        for (const auto &line : corpus) {
            const std::size_t fast = comp->compressedBytes(line.data());
            const std::size_t full =
                comp->compress(line.data()).sizeBytes();
            if (fast != full) {
                std::fprintf(stderr,
                             "%s: size path %zu != encode path %zu\n",
                             comp->name().c_str(), fast, full);
                ok = false;
            }
        }

        std::size_t sink = 0;
        const auto t0 = Clock::now();
        for (int p = 0; p < passes; ++p)
            for (const auto &line : corpus)
                sink += comp->compress(line.data()).sizeBytes();
        const auto t1 = Clock::now();
        for (int p = 0; p < passes; ++p)
            for (const auto &line : corpus)
                sink += comp->compressedBytes(line.data());
        const auto t2 = Clock::now();
        benchmark::DoNotOptimize(sink);

        const double bytes =
            static_cast<double>(passes) * corpus.size() * kLineBytes;
        const double encodeSec =
            std::chrono::duration<double>(t1 - t0).count();
        const double sizeSec =
            std::chrono::duration<double>(t2 - t1).count();
        std::printf("%-10s %14.1f %14.1f %8.2fx\n",
                    comp->name().c_str(), bytes / encodeSec / 1e6,
                    bytes / sizeSec / 1e6, encodeSec / sizeSec);
    }

    // BDI's size path per data pattern over distinct lines: the
    // spread between patterns is the kernel's data-dependent cost.
    const int reps = 9;
    const auto bdi = bvc::makeCompressor(bvc::CompressorKind::Bdi);
    std::printf("\n%-12s %16s\n", "pattern", "BDI size ns/line");
    for (const auto kind : kAllPatterns) {
        const auto lines = distinctLines(kind);
        double bestSec = 0.0;
        std::size_t sink = 0;
        for (int r = 0; r < reps; ++r) {
            const auto t0 = Clock::now();
            for (const auto &line : lines)
                sink += bdi->compressedBytes(line.data());
            const double sec =
                std::chrono::duration<double>(Clock::now() - t0).count();
            if (r == 0 || sec < bestSec)
                bestSec = sec;
        }
        benchmark::DoNotOptimize(sink);
        std::printf("%-12s %16.1f\n",
                    bvc::DataPattern::kindName(kind).c_str(),
                    bestSec * 1e9 / static_cast<double>(lines.size()));
    }
    return ok;
}

} // namespace

#define BVC_DISTINCT_BENCH(codec, kindEnum, patternName, patternEnum)   \
    BENCHMARK_CAPTURE(sizeDistinct, codec##_size_distinct_##patternName, \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::patternEnum)

#define BVC_CODEC_BENCH(codec, kindEnum)                                 \
    BENCHMARK_CAPTURE(compressOne, codec##_zeros,                        \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::Zeros);                      \
    BENCHMARK_CAPTURE(compressOne, codec##_small_ints,                   \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::SmallInts);                  \
    BENCHMARK_CAPTURE(compressOne, codec##_random,                       \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::Random);                     \
    BENCHMARK_CAPTURE(sizeOne, codec##_size_small_ints,                  \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::SmallInts);                  \
    BENCHMARK_CAPTURE(sizeOne, codec##_size_random,                      \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::Random);                     \
    BENCHMARK_CAPTURE(roundTripOne, codec##_roundtrip_mixed,             \
                      bvc::CompressorKind::kindEnum,                     \
                      bvc::DataPatternKind::MixedGood);                  \
    BVC_DISTINCT_BENCH(codec, kindEnum, zeros, Zeros);                   \
    BVC_DISTINCT_BENCH(codec, kindEnum, small_ints, SmallInts);          \
    BVC_DISTINCT_BENCH(codec, kindEnum, pointer_heap, PointerHeap);      \
    BVC_DISTINCT_BENCH(codec, kindEnum, narrow_ints, NarrowInts);        \
    BVC_DISTINCT_BENCH(codec, kindEnum, floats, Floats);                 \
    BVC_DISTINCT_BENCH(codec, kindEnum, random, Random);                 \
    BVC_DISTINCT_BENCH(codec, kindEnum, mixed_good, MixedGood);          \
    BVC_DISTINCT_BENCH(codec, kindEnum, mixed_poor, MixedPoor)

BVC_CODEC_BENCH(bdi, Bdi);
BVC_CODEC_BENCH(fpc, Fpc);
BVC_CODEC_BENCH(cpack, Cpack);
BVC_CODEC_BENCH(zero, Zero);

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            return runSmoke() ? 0 : 1;
    }
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
