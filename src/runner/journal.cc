#include "runner/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "runner/report.hh"
#include "tracefile/bvt_reader.hh"
#include "util/crc32.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace bvc
{

namespace
{

constexpr const char *kMagic = "BVCJ1";

std::string
crcHex(std::uint32_t crc)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

/** One journal record: magic, payload CRC, payload, newline. */
std::string
frameRecord(const std::string &payload)
{
    return std::string(kMagic) + " " + crcHex(crc32(payload)) + " " +
        payload + "\n";
}

std::string
headerPayload(const std::string &tool, const std::string &signature,
              std::size_t jobCount, std::size_t shardIndex,
              std::size_t shardCount)
{
    std::ostringstream out;
    out << "{\"kind\": \"header\", \"tool\": \"" << jsonEscape(tool)
        << "\", \"signature\": \"" << jsonEscape(signature)
        << "\", \"jobs\": " << jobCount
        << ", \"shard\": " << shardIndex
        << ", \"shards\": " << shardCount << "}";
    return out.str();
}

std::string
jobPayload(const JobResult &r)
{
    const RunResult &m = r.result;
    std::ostringstream out;
    out << "{\"kind\": \"job\""
        << ", \"index\": " << r.index
        << ", \"label\": \"" << jsonEscape(r.label) << "\""
        << ", \"trace\": \"" << jsonEscape(r.trace) << "\""
        << ", \"ok\": " << (r.ok ? "true" : "false")
        << ", \"error\": \"" << jsonEscape(r.error) << "\""
        << ", \"error_category\": \""
        << errorCategoryName(r.errorCategory) << "\""
        << ", \"attempts\": " << r.attempts
        << ", \"wall_seconds\": " << jsonNum(r.wallSeconds)
        << ", \"ipc\": " << jsonNum(m.ipc)
        << ", \"instructions\": " << m.instructions
        << ", \"cycles\": " << m.cycles
        << ", \"dram_reads\": " << m.dramReads
        << ", \"dram_writes\": " << m.dramWrites
        << ", \"dram_demand_reads\": " << m.dramDemandReads
        << ", \"llc_demand_accesses\": " << m.llcDemandAccesses
        << ", \"llc_demand_hits\": " << m.llcDemandHits
        << ", \"llc_demand_misses\": " << m.llcDemandMisses
        << ", \"llc_victim_hits\": " << m.llcVictimHits
        << ", \"llc_accesses\": " << m.llcAccesses
        << ", \"back_invalidations\": " << m.backInvalidations
        << "}";
    return out.str();
}

/** Parse one record payload into `data`; `kind` dispatches. */
void
parsePayload(const std::string &payload, std::size_t lineOffset,
             bool first, JournalData &data)
{
    std::string kind;
    JobResult job;
    RunResult &m = job.result;
    bool isHeader = false;
    JsonReader reader(payload);
    reader.parseObject([&](const std::string &key) {
        if (key == "kind") {
            kind = reader.parseString();
            isHeader = kind == "header";
        } else if (key == "tool") {
            data.tool = reader.parseString();
        } else if (key == "signature") {
            data.signature = reader.parseString();
        } else if (key == "jobs") {
            data.jobCount = reader.parseU64();
        } else if (key == "shard") {
            data.shardIndex = reader.parseU64();
        } else if (key == "shards") {
            data.shardCount = reader.parseU64();
        } else if (key == "index") {
            job.index = reader.parseU64();
        } else if (key == "label") {
            job.label = reader.parseString();
        } else if (key == "trace") {
            job.trace = reader.parseString();
        } else if (key == "ok") {
            job.ok = reader.parseBool();
        } else if (key == "error") {
            job.error = reader.parseString();
        } else if (key == "error_category") {
            job.errorCategory =
                parseErrorCategory(reader.parseString());
        } else if (key == "attempts") {
            job.attempts = static_cast<unsigned>(reader.parseU64());
        } else if (key == "wall_seconds") {
            job.wallSeconds = reader.parseNumberOrNull();
        } else if (key == "ipc") {
            m.ipc = reader.parseNumberOrNull();
        } else if (key == "instructions") {
            m.instructions = reader.parseU64();
        } else if (key == "cycles") {
            m.cycles = reader.parseU64();
        } else if (key == "dram_reads") {
            m.dramReads = reader.parseU64();
        } else if (key == "dram_writes") {
            m.dramWrites = reader.parseU64();
        } else if (key == "dram_demand_reads") {
            m.dramDemandReads = reader.parseU64();
        } else if (key == "llc_demand_accesses") {
            m.llcDemandAccesses = reader.parseU64();
        } else if (key == "llc_demand_hits") {
            m.llcDemandHits = reader.parseU64();
        } else if (key == "llc_demand_misses") {
            m.llcDemandMisses = reader.parseU64();
        } else if (key == "llc_victim_hits") {
            m.llcVictimHits = reader.parseU64();
        } else if (key == "llc_accesses") {
            m.llcAccesses = reader.parseU64();
        } else if (key == "back_invalidations") {
            m.backInvalidations = reader.parseU64();
        } else {
            reader.skipValue();
        }
    });
    reader.expectEnd();
    if (kind.empty())
        throw BvcError(ErrorCategory::Io,
                       "journal record at byte " +
                           std::to_string(lineOffset) +
                           " has no kind field");
    if (first != isHeader)
        throw BvcError(ErrorCategory::Io,
                       isHeader
                           ? "journal has a second header record at "
                             "byte " + std::to_string(lineOffset)
                           : "journal does not start with a header "
                             "record");
    if (!isHeader) {
        if (kind != "job")
            throw BvcError(ErrorCategory::Io,
                           "journal record at byte " +
                               std::to_string(lineOffset) +
                               " has unknown kind '" + kind + "'");
        data.results.push_back(std::move(job));
        data.recordOffsets.push_back(lineOffset);
    }
}

} // namespace

namespace
{

/**
 * Fold every simulation-relevant SystemConfig field into `crc`. Labels
 * are often bare arch names ("base-victim"), so the configuration
 * itself must be part of the campaign identity or a resume under a
 * different --llc-kb/--ways would silently import foreign results.
 */
std::uint32_t
crcConfig(const SystemConfig &c, std::uint32_t crc)
{
    const HierarchyConfig &h = c.hier;
    const CoreConfig &core = c.core;
    const DramTiming &t = c.dramTiming;
    const DramGeometry &g = c.dramGeometry;
    const std::uint64_t words[] = {
        h.l1iBytes, h.l1iWays, h.l1dBytes, h.l1dWays,
        h.l2Bytes, h.l2Ways,
        h.l1Latency, h.l2Latency, h.llcLatency,
        h.prefetch, h.llcInclusive,
        static_cast<std::uint64_t>(h.l1Repl),
        static_cast<std::uint64_t>(h.l2Repl),
        core.fetchWidth, core.robSize, core.nonMemLatency,
        core.modelIfetch,
        t.tCl, t.tRcd, t.tRp, t.tRas, t.tBurst,
        t.coreClockMultiplier,
        g.channels, g.banksPerChannel, g.columnShift,
        c.llcBytes, c.llcWays,
        static_cast<std::uint64_t>(c.arch),
        static_cast<std::uint64_t>(c.llcRepl),
        static_cast<std::uint64_t>(c.victimRepl),
        static_cast<std::uint64_t>(c.compressor),
        c.segmentQuantum, c.llcInclusive,
    };
    return crc32(words, sizeof(words), crc);
}

/**
 * Fold the full trace definition into `crc`: the name is only a tag,
 * the generated access stream is determined by these parameters.
 */
std::uint32_t
crcTrace(const TraceParams &t, std::uint32_t crc)
{
    crc = crc32(t.name.data(), t.name.size() + 1, crc);
    const double fracs[] = {t.loadFrac, t.storeFrac, t.streamFrac,
                            t.chaseFrac, t.hotFrac, t.residentFrac};
    crc = crc32(fracs, sizeof(fracs), crc);
    const std::uint64_t words[] = {
        static_cast<std::uint64_t>(t.category), t.seed,
        t.wsBytes, t.hotBytes, t.residentBytes,
        t.streamBytes, t.chaseBytes,
        static_cast<std::uint64_t>(t.pattern),
        t.cacheSensitive, t.pcCount, t.streamCursors,
        t.addressOffset,
    };
    crc = crc32(words, sizeof(words), crc);
    if (!t.filePath.empty()) {
        // File-backed trace: the stream comes from the .bvt body, so
        // fold the path AND the file's header CRC (which covers the
        // record/block counts and metadata) into the signature — a
        // resume against a swapped or regenerated trace file must be
        // refused, exactly like a changed generator parameter.
        // t.decodeAhead is deliberately NOT hashed: it never changes
        // the record stream.
        crc = crc32(t.filePath.data(), t.filePath.size() + 1, crc);
        const std::uint32_t headerCrc = readBvtHeader(t.filePath).headerCrc;
        crc = crc32(&headerCrc, sizeof(headerCrc), crc);
    }
    return crc;
}

} // namespace

std::string
campaignSignature(const std::vector<SweepJob> &jobs)
{
    std::uint32_t crc = 0;
    const std::uint64_t count = jobs.size();
    crc = crc32(&count, sizeof(count), crc);
    for (const SweepJob &job : jobs) {
        crc = crc32(job.label.data(), job.label.size() + 1, crc);
        crc = crcConfig(job.config, crc);
        crc = crcTrace(job.trace, crc);
        const std::uint64_t windows[2] = {job.opts.warmup,
                                          job.opts.measure};
        crc = crc32(windows, sizeof(windows), crc);
    }
    return crcHex(crc);
}

JournalData
readJournal(const std::string &path)
{
    std::string text;
    {
        // Plain ifstream read; the atomicity story is on the write
        // side (append + fsync).
        FILE *f = std::fopen(path.c_str(), "rb");
        if (f == nullptr)
            throw BvcError(ErrorCategory::Io,
                           "cannot open journal '" + path + "': " +
                               std::strerror(errno));
        char buf[4096];
        std::size_t got;
        while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, got);
        std::fclose(f);
    }

    JournalData data;
    std::size_t pos = 0;
    bool first = true;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        if (eol == std::string::npos) {
            // A record without its newline is the torn tail of a
            // crashed write: the job it describes was not durably
            // completed, so drop it and let resume re-run that job.
            warn("journal '" + path + "': ignoring torn record at "
                 "byte " + std::to_string(pos));
            data.tornTail = true;
            break;
        }
        const std::string line = text.substr(pos, eol - pos);
        // Frame: "BVCJ1 <8 hex> <payload>".
        const std::size_t magicLen = std::strlen(kMagic);
        if (line.compare(0, magicLen, kMagic) != 0 ||
            line.size() < magicLen + 11 || line[magicLen] != ' ' ||
            line[magicLen + 9] != ' ')
            throw BvcError(ErrorCategory::Io,
                           "bad journal framing at byte " +
                               std::to_string(pos))
                .withContext("reading journal " + path);
        const std::string crcText =
            line.substr(magicLen + 1, 8);
        char *end = nullptr;
        const std::uint32_t stored = static_cast<std::uint32_t>(
            std::strtoul(crcText.c_str(), &end, 16));
        if (end != crcText.c_str() + 8)
            throw BvcError(ErrorCategory::Io,
                           "bad journal CRC field at byte " +
                               std::to_string(pos))
                .withContext("reading journal " + path);
        const std::string payload = line.substr(magicLen + 10);
        if (crc32(payload) != stored)
            throw BvcError(ErrorCategory::Io,
                           "journal CRC mismatch at byte " +
                               std::to_string(pos))
                .withContext("reading journal " + path);
        try {
            parsePayload(payload, pos, first, data);
        } catch (BvcError &e) {
            throw e.withContext("reading journal " + path);
        }
        first = false;
        pos = eol + 1;
    }
    if (first)
        throw BvcError(ErrorCategory::Io,
                       "journal has no complete header record")
            .withContext("reading journal " + path);
    // `pos` stops at the start of a torn record (or end of file), i.e.
    // one past the last complete record — the offset resume must
    // truncate to before appending.
    data.validBytes = pos;
    return data;
}

void
checkResumeCompatible(const JournalData &data, const std::string &path,
                      const std::string &signature,
                      std::size_t jobCount, std::size_t shardIndex,
                      std::size_t shardCount)
{
    if (data.signature != signature)
        throw BvcError(ErrorCategory::Config,
                       "journal '" + path + "' was written by a "
                       "different campaign (signature " +
                           data.signature + ", expected " + signature +
                           ")");
    if (data.jobCount != jobCount)
        throw BvcError(ErrorCategory::Config,
                       "journal '" + path + "' records " +
                           std::to_string(data.jobCount) +
                           " jobs, campaign has " +
                           std::to_string(jobCount));
    if (data.shardIndex != shardIndex || data.shardCount != shardCount)
        throw BvcError(ErrorCategory::Config,
                       "journal '" + path + "' belongs to shard " +
                           std::to_string(data.shardIndex) + "/" +
                           std::to_string(data.shardCount) +
                           ", this worker owns shard " +
                           std::to_string(shardIndex) + "/" +
                           std::to_string(shardCount));
}

JournalWriter::JournalWriter(const std::string &path,
                             const std::string &tool,
                             const std::string &signature,
                             std::size_t jobCount,
                             std::size_t shardIndex,
                             std::size_t shardCount)
    : path_(path)
{
    // The header is staged and renamed into place (writeFileAtomic also
    // syncs the directory entry): a process killed while creating its
    // journal leaves either no journal, so a restart begins fresh, or
    // one with a complete header it can resume — never a headerless
    // file that every resume would refuse.
    writeFileAtomic(path, frameRecord(headerPayload(
                              tool, signature, jobCount, shardIndex,
                              shardCount)));
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0)
        fatal("cannot open journal '" + path + "': " +
              std::strerror(errno));
}

JournalWriter::JournalWriter(const std::string &path,
                             std::size_t validBytes)
    : path_(path)
{
    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0)
        fatal("cannot reopen journal '" + path + "': " +
              std::strerror(errno));
    // Drop the torn tail readJournal() skipped: appending after it
    // would glue the next record onto the torn bytes, forming a frame
    // whose CRC can never match and poisoning the next resume.
    if (::ftruncate(fd_, static_cast<off_t>(validBytes)) != 0)
        fatal("cannot truncate journal '" + path + "' to " +
              std::to_string(validBytes) + " bytes: " +
              std::strerror(errno));
}

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JournalWriter::append(const JobResult &result)
{
    appendPayload(jobPayload(result));
}

void
JournalWriter::appendPayload(const std::string &payload)
{
    const std::string line = frameRecord(payload);
    MutexLock lock(mutex_);
    std::size_t written = 0;
    while (written < line.size()) {
        const ssize_t n = ::write(fd_, line.data() + written,
                                  line.size() - written);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("journal write to '" + path_ + "' failed: " +
                  std::strerror(errno));
        }
        written += static_cast<std::size_t>(n);
    }
    // fsync before returning: once append() is back, the record is
    // durable and a die-at-boundary fault may kill the process.
    if (::fsync(fd_) != 0)
        fatal("journal fsync on '" + path_ + "' failed: " +
              std::strerror(errno));
}

} // namespace bvc
