/**
 * @file
 * Crash-safe sweep journal (docs/robustness.md): an append-only file
 * the engine writes one fsync'd record to per completed job, so a
 * campaign killed mid-run can resume with `bvsweep --resume` instead
 * of recomputing finished work. Every record is CRC-framed:
 *
 *   BVCJ1 <crc32:8 hex> <payload JSON>\n
 *
 * where the CRC covers the payload bytes. The first record is a header
 * naming the producing tool, the campaign signature, the job count and
 * the shard coordinates (shard i of N; 0/1 for an unsharded campaign);
 * each subsequent record is one JobResult. A truncated final record
 * (no trailing newline) is the expected artifact of a crash mid-write
 * and is ignored with a warning; a CRC mismatch or malformed *framed*
 * record is corruption and throws BvcError{Io}.
 */

#ifndef BVC_RUNNER_JOURNAL_HH_
#define BVC_RUNNER_JOURNAL_HH_

#include <string>
#include <vector>

#include "runner/sweep.hh"
#include "util/thread_annotations.hh"

namespace bvc
{

/**
 * Identity of a campaign, hashed from each job's label, full
 * SystemConfig (cache geometry, architecture, compressor, DRAM
 * model), trace parameters and measurement windows. Resume refuses a
 * journal whose signature does not match the jobs being run: importing
 * results simulated under a different configuration would silently
 * corrupt the report.
 */
std::string campaignSignature(const std::vector<SweepJob> &jobs);

/** Everything recovered from a journal file. */
struct JournalData
{
    std::string tool;         //!< producing tool, from the header
    std::string signature;    //!< campaignSignature() at write time
    std::size_t jobCount = 0; //!< total jobs in the campaign
    /** Shard coordinates from the header: this journal holds the jobs
     *  with `index % shardCount == shardIndex`. Journals written
     *  before sharding existed carry no shard fields and read back as
     *  the whole-campaign shard 0/1. */
    std::size_t shardIndex = 0;
    std::size_t shardCount = 1; //!< worker count of the campaign
    /** Completed jobs in append (not index) order. */
    std::vector<JobResult> results;
    /** Byte offset of each record in `results` (parallel vector), so
     *  validation errors can name the exact offending frame. */
    std::vector<std::size_t> recordOffsets;
    /**
     * Offset one past the last complete record: the length a resume
     * writer truncates the file to, so new records never append onto
     * a torn tail.
     */
    std::size_t validBytes = 0;
    /** True when the file ended in a torn (newline-less) record that
     *  was dropped. Resume tolerates this; strict merge refuses it
     *  unless the shard is covered by error provenance. */
    bool tornTail = false;
};

/**
 * Parse a journal file. Throws BvcError{Io} on a missing/garbled
 * header, bad framing or CRC mismatch (naming the byte offset);
 * tolerates a torn final record.
 */
[[nodiscard]] JournalData readJournal(const std::string &path);

/**
 * Throws BvcError{Config} unless `data` was produced by a campaign
 * with this signature and job count, AND by the shard at these
 * coordinates — a worker handed the wrong shard's journal must refuse
 * it, or two workers would double-run (and double-append) a slice.
 * The defaults describe the unsharded single-process campaign.
 */
void checkResumeCompatible(const JournalData &data,
                           const std::string &path,
                           const std::string &signature,
                           std::size_t jobCount,
                           std::size_t shardIndex = 0,
                           std::size_t shardCount = 1);

/**
 * Append-only journal writer. Thread-safe; every append is written
 * and fsync'd before returning, so a record's presence in the file is
 * the checkpoint boundary — a process dying right after append() has
 * durably completed that job. I/O failures are fatal(): a campaign
 * whose journal stops persisting cannot keep its resume promise.
 */
class JournalWriter
{
  public:
    /**
     * Create/replace `path` holding just the header record (stamped
     * with the shard coordinates; the defaults are the unsharded
     * campaign). The header is written atomically (writeFileAtomic):
     * the journal appears with a complete header or not at all, and
     * cannot vanish from its directory after a power loss.
     */
    JournalWriter(const std::string &path, const std::string &tool,
                  const std::string &signature, std::size_t jobCount,
                  std::size_t shardIndex = 0,
                  // 0/1 (the defaults) = the unsharded campaign
                  std::size_t shardCount = 1);

    /**
     * Re-open an existing journal for appending (resume), first
     * truncating it to `validBytes` (JournalData::validBytes) so a
     * torn final record cannot corrupt the frame appended after it.
     */
    JournalWriter(const std::string &path, std::size_t validBytes);

    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    void append(const JobResult &result) BVC_EXCLUDES(mutex_);

  private:
    void appendPayload(const std::string &payload) BVC_EXCLUDES(mutex_);

    std::string path_;
    AnnotatedMutex mutex_;
    /**
     * Written by the (single-threaded) ctor/dtor, which the analysis
     * exempts; every cross-thread touch is the locked appendPayload.
     */
    int fd_ BVC_GUARDED_BY(mutex_) = -1;
};

} // namespace bvc

#endif // BVC_RUNNER_JOURNAL_HH_
