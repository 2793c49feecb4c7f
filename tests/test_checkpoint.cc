/**
 * @file
 * Crash-safe checkpoint/resume: cell lines must round-trip
 * bit-exactly, torn or corrupted lines must be dropped (never
 * trusted, never fatal), mismatched experiments and schema versions
 * must be rejected at open(), and a matrix resumed from a partial
 * checkpoint must be bit-identical to an uninterrupted run at any
 * job count without re-simulating a restored cell, and an append the
 * kernel refuses must leave the matrix unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/resource.h>
#include <vector>

#include "sim/checkpoint.hh"
#include "sim/experiment.hh"
#include "workloads/registry.hh"

namespace cbws
{
namespace
{

/** FNV-1a, mirrored from the format so tests can forge sealed
 *  lines (wrong schema version under a *valid* checksum). */
std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::string
seal(const std::string &object_text)
{
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(object_text)));
    std::string out = object_text;
    out.insert(out.size() - 1,
               std::string(",\"crc\":\"") + hex + "\"");
    return out;
}

/** Give every counter in @p s's Counters table the next value of
 *  @p v. */
template <typename Stats>
void
fillCounters(Stats &s, std::uint64_t &v)
{
    for (auto counter : Stats::Counters)
        s.*counter = v++;
}

/** A SimResult with every serialised field holding a distinct,
 *  recognisable value; @p cores > 1 adds the per-core slices. */
SimResult
makeResult(std::uint64_t salt = 0, unsigned cores = 1)
{
    SimResult r;
    r.workload = "unit-workload";
    r.prefetcher = "CBWS+SMS";
    r.dramBackend = "ddr";
    r.prefetcherStorageBits = 12345 + salt;
    std::uint64_t v = 31 + salt;
    fillCounters(r.core, v);
    fillCounters(r.mem, v);
    for (auto &c : r.mem.classCounts)
        c = v++;
    for (auto &c : r.mem.latenessHist)
        c = v++;
    for (auto &life : r.mem.pfLife)
        fillCounters(life, v);
    fillCounters(r.mem.dram, v);
    if (cores > 1) {
        r.cores = cores;
        r.perCore.resize(cores);
        for (unsigned c = 0; c < cores; ++c) {
            CoreSliceResult &slice = r.perCore[c];
            slice.workload = "unit-workload-" + std::to_string(c);
            fillCounters(slice.core, v);
            fillCounters(slice.mem, v);
            r.mem.perCore.push_back(slice.mem);
        }
    }
    return r;
}

::testing::AssertionResult
cellsIdentical(const SimResult &a, const SimResult &b)
{
    if (a == b)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a.workload << "/" << a.prefetcher << " differs:\n  "
           << checkpointCellLine(a) << "\n  " << checkpointCellLine(b);
}

TEST(CheckpointCell, LineRoundTripsBitExactly)
{
    for (unsigned cores : {1u, 2u}) {
        const SimResult original = makeResult(0, cores);
        const std::string line = checkpointCellLine(original);

        Result<SimResult> parsed = parseCheckpointCell(line);
        ASSERT_TRUE(parsed.ok()) << parsed.error().str();
        EXPECT_TRUE(cellsIdentical(original, parsed.value()));

        // The strongest form: re-serialising the parsed cell
        // reproduces the identical line, checksum and all.
        EXPECT_EQ(checkpointCellLine(parsed.value()), line);
    }
}

/** True when @p Stats's Counters table lists its members in
 *  declaration (address) order. */
template <typename Stats>
bool
countersInDeclarationOrder()
{
    const Stats s{};
    const char *prev = nullptr;
    for (auto counter : Stats::Counters) {
        const char *at = reinterpret_cast<const char *>(&(s.*counter));
        if (prev && at <= prev)
            return false;
        prev = at;
    }
    return true;
}

TEST(CheckpointCell, CounterTablesFollowDeclarationOrder)
{
    EXPECT_TRUE(countersInDeclarationOrder<CoreStats>());
    EXPECT_TRUE(countersInDeclarationOrder<HierarchyStats>());
    EXPECT_TRUE(countersInDeclarationOrder<CoreMemStats>());
    EXPECT_TRUE(countersInDeclarationOrder<PrefetchLifecycle>());
    EXPECT_TRUE(countersInDeclarationOrder<DramStats>());
}

/**
 * Two v4 cells written by the hand-listed writer that preceded the
 * Counters tables (stencil-default under CBWS+SMS at 20000
 * instructions: one single-core `ddr` cell, one 2-core `fixed` cell).
 * Every v4 build must read them and write them back byte for byte,
 * with each array element landing in the same counter: adding,
 * dropping or reordering a counter without bumping
 * CheckpointSchemaVersion fails here.
 */
TEST(CheckpointCell, GoldenV4CellsRoundTripByteIdentically)
{
    std::ifstream in(std::string(CBWS_TESTS_DIR) +
                     "/golden/checkpoint_cells_v4.jsonl");
    ASSERT_TRUE(in) << "missing golden checkpoint_cells_v4.jsonl";
    std::vector<SimResult> cells;
    std::string line;
    while (std::getline(in, line)) {
        Result<SimResult> parsed = parseCheckpointCell(line);
        ASSERT_TRUE(parsed.ok()) << parsed.error().str();
        EXPECT_EQ(checkpointCellLine(parsed.value()), line);
        cells.push_back(std::move(parsed).value());
    }
    ASSERT_EQ(cells.size(), 2u);

    const SimResult &ddr = cells[0];
    EXPECT_EQ(ddr.dramBackend, "ddr");
    EXPECT_EQ(ddr.cores, 1u);
    EXPECT_EQ(ddr.core.instructions, 15000u);
    EXPECT_EQ(ddr.core.lsqFullStalls, 125603u);
    EXPECT_EQ(ddr.mem.prefetchesIssued, 3732u);
    EXPECT_EQ(ddr.mem.dram.rowHits, 1846u);
    EXPECT_EQ(ddr.mem.dram.writeQueueDepthSum, 21795u);
    EXPECT_EQ(ddr.mem.pfLife[5].latenessCycles, 497816u);

    const SimResult &multi = cells[1];
    EXPECT_EQ(multi.dramBackend, "fixed");
    ASSERT_EQ(multi.cores, 2u);
    ASSERT_EQ(multi.perCore.size(), 2u);
    EXPECT_EQ(multi.core.instructions, 30000u);
    EXPECT_EQ(multi.core.cycles, 83040u);
    EXPECT_EQ(multi.mem.l2BankConflicts, 7534u);
    EXPECT_EQ(multi.perCore[0].mem.l2ResidentLines, 1033u);
    EXPECT_EQ(multi.perCore[0].mem.prefetchesRequested, 7432u);
    EXPECT_EQ(multi.mem.perCore[0], multi.perCore[0].mem);
}

TEST(CheckpointCell, TamperedLineFailsItsChecksum)
{
    std::string line = checkpointCellLine(makeResult());
    // Flip one digit somewhere in the payload.
    const std::size_t at = line.find("12345");
    ASSERT_NE(at, std::string::npos);
    line[at] = '9';

    Result<SimResult> parsed = parseCheckpointCell(line);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.code(), Errc::Corrupt);
}

TEST(CheckpointCell, TruncatedLineIsCorruptNotACrash)
{
    const std::string line = checkpointCellLine(makeResult());
    for (std::size_t keep : {std::size_t(0), std::size_t(1),
                             line.size() / 2, line.size() - 1}) {
        Result<SimResult> parsed =
            parseCheckpointCell(line.substr(0, keep));
        EXPECT_FALSE(parsed.ok()) << "kept " << keep << " bytes";
        EXPECT_EQ(parsed.code(), Errc::Corrupt);
    }
}

TEST(CheckpointCell, WrongSchemaVersionIsRejectedAsSuch)
{
    // Forge a line whose checksum is valid but whose schema_version
    // is from the future: the diagnostic must say "version", not
    // "corrupt".
    const std::string line = checkpointCellLine(makeResult());
    const std::string marker = ",\"crc\":\"";
    std::string object = line.substr(0, line.rfind(marker)) + "}";
    const std::string old =
        "\"schema_version\":" +
        std::to_string(CheckpointSchemaVersion);
    const std::size_t at = object.find(old);
    ASSERT_NE(at, std::string::npos);
    object.replace(at, old.size(), "\"schema_version\":99");

    Result<SimResult> parsed = parseCheckpointCell(seal(object));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.code(), Errc::VersionMismatch);
}

TEST(CheckpointFingerprint, SensitiveToNamesAndOrder)
{
    const std::uint64_t base =
        checkpointFingerprint({"a", "b"}, {"x", "y"});
    EXPECT_NE(base, checkpointFingerprint({"a"}, {"x", "y"}));
    EXPECT_NE(base, checkpointFingerprint({"b", "a"}, {"x", "y"}));
    EXPECT_NE(base, checkpointFingerprint({"a", "b"}, {"x"}));
    // The separator must keep {"ab"} and {"a","b"} apart.
    EXPECT_NE(checkpointFingerprint({"ab"}, {}),
              checkpointFingerprint({"a", "b"}, {}));
    EXPECT_EQ(base, checkpointFingerprint({"a", "b"}, {"x", "y"}));
}

/** Temp directory per test. */
class CheckpointFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        char tmpl[] = "/tmp/cbws-checkpoint-XXXXXX";
        ASSERT_NE(::mkdtemp(tmpl), nullptr);
        dir_ = tmpl;
        path_ = dir_ + "/matrix.ckpt";
    }

    void
    TearDown() override
    {
        const std::string cmd = "rm -rf '" + dir_ + "'";
        if (std::system(cmd.c_str()) != 0)
            ADD_FAILURE() << "cleanup failed: " << cmd;
    }

    static Checkpoint::Header
    header(std::uint64_t insts = 8000, std::uint64_t seed = 42)
    {
        Checkpoint::Header h;
        h.insts = insts;
        h.seed = seed;
        h.fingerprint = checkpointFingerprint({"unit-workload"},
                                              {"CBWS+SMS", "CBWS"});
        return h;
    }

    std::vector<std::string>
    readLines() const
    {
        std::ifstream in(path_);
        std::vector<std::string> lines;
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
        return lines;
    }

    void
    writeLines(const std::vector<std::string> &lines,
               const std::string &unterminated_tail = "") const
    {
        std::ofstream out(path_, std::ios::trunc);
        for (const auto &line : lines)
            out << line << "\n";
        out << unterminated_tail;
    }

    std::string dir_;
    std::string path_;
};

TEST_F(CheckpointFileTest, FreshFileThenReopenRestoresCells)
{
    const SimResult a = makeResult(0);
    SimResult b = makeResult(1000);
    b.prefetcher = "CBWS";
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, header()));
        EXPECT_EQ(ckpt.resumedCells(), 0u);
        ASSERT_TRUE(ckpt.append(a));
        ASSERT_TRUE(ckpt.append(b));
        // Duplicate appends are ignored, not double-written.
        ASSERT_TRUE(ckpt.append(a));
    }
    EXPECT_EQ(readLines().size(), 4u)
        << "header + provenance + 2 cells";

    Checkpoint resumed;
    ASSERT_TRUE(resumed.open(path_, header()));
    EXPECT_EQ(resumed.resumedCells(), 2u);
    const SimResult *ra = resumed.find("unit-workload", "CBWS+SMS");
    const SimResult *rb = resumed.find("unit-workload", "CBWS");
    ASSERT_NE(ra, nullptr);
    ASSERT_NE(rb, nullptr);
    EXPECT_TRUE(cellsIdentical(a, *ra));
    EXPECT_TRUE(cellsIdentical(b, *rb));
    EXPECT_EQ(resumed.find("unit-workload", "Stride"), nullptr);
}

TEST_F(CheckpointFileTest, TornTailLineIsDroppedOnResume)
{
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, header()));
        ASSERT_TRUE(ckpt.append(makeResult()));
    }
    // Simulate a SIGKILL mid-append: a second cell line cut off
    // without its trailing bytes or newline.
    auto lines = readLines();
    ASSERT_EQ(lines.size(), 3u) << "header + provenance + 1 cell";
    const std::string torn = lines[2].substr(0, lines[2].size() / 2);
    writeLines(lines, torn);

    Checkpoint resumed;
    ASSERT_TRUE(resumed.open(path_, header()));
    EXPECT_EQ(resumed.resumedCells(), 1u)
        << "the intact cell survives, the torn one is dropped";
}

TEST_F(CheckpointFileTest, DifferentExperimentIsRejected)
{
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, header(8000, 42)));
    }
    struct Case
    {
        const char *what;
        Checkpoint::Header h;
    };
    Checkpoint::Header other_fp = header(8000, 42);
    other_fp.fingerprint ^= 1;
    const Case cases[] = {
        {"different budget", header(9000, 42)},
        {"different seed", header(8000, 43)},
        {"different cell space", other_fp},
    };
    for (const auto &c : cases) {
        Checkpoint ckpt;
        Result<void> r = ckpt.open(path_, c.h);
        ASSERT_FALSE(r.ok()) << c.what;
        EXPECT_EQ(r.code(), Errc::InvalidArgument) << c.what;
        EXPECT_NE(r.error().message.find("different experiment"),
                  std::string::npos)
            << c.what;
    }
}

TEST_F(CheckpointFileTest, FutureSchemaVersionIsRejectedAsSuch)
{
    writeLines({seal("{\"schema_version\":99,\"type\":\"header\","
                     "\"format\":\"cbws-checkpoint\",\"insts\":8000,"
                     "\"seed\":42,\"fingerprint\":"
                     "\"0000000000000000\"}")});
    Checkpoint ckpt;
    Result<void> r = ckpt.open(path_, header());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::VersionMismatch);
}

TEST_F(CheckpointFileTest, GarbageFileIsCorruptNotFatal)
{
    writeLines({"this is not a checkpoint"});
    Checkpoint ckpt;
    Result<void> r = ckpt.open(path_, header());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.code(), Errc::Corrupt);
}

/** Matrix-level resume determinism. */
class CheckpointResumeTest : public CheckpointFileTest
{
  protected:
    void
    SetUp() override
    {
        CheckpointFileTest::SetUp();
        for (const char *name : {"fft-simlarge", "stencil-default"}) {
            auto w = findWorkload(name);
            ASSERT_NE(w, nullptr) << name;
            workloads_.push_back(std::move(w));
        }
        kinds_ = {"No-Prefetch", "Stride", "CBWS"};
    }

    ExperimentMatrix
    run(unsigned jobs, const std::string &checkpoint = "")
    {
        MatrixOptions options;
        options.jobs = jobs;
        options.checkpointPath = checkpoint;
        return runMatrix(workloads_, kinds_, config_, insts_, 42,
                         options);
    }

    static ::testing::AssertionResult
    matricesIdentical(const ExperimentMatrix &a,
                      const ExperimentMatrix &b)
    {
        if (a.rows.size() != b.rows.size())
            return ::testing::AssertionFailure() << "row count";
        for (std::size_t r = 0; r < a.rows.size(); ++r) {
            if (a.rows[r].byPrefetcher.size() !=
                b.rows[r].byPrefetcher.size())
                return ::testing::AssertionFailure() << "cell count";
            for (std::size_t k = 0; k < a.rows[r].byPrefetcher.size();
                 ++k) {
                auto cell =
                    cellsIdentical(a.rows[r].byPrefetcher[k],
                                   b.rows[r].byPrefetcher[k]);
                if (!cell)
                    return cell;
            }
        }
        return ::testing::AssertionSuccess();
    }

    std::vector<WorkloadPtr> workloads_;
    std::vector<std::string> kinds_;
    SystemConfig config_;
    static constexpr std::uint64_t insts_ = 8000;
};

TEST_F(CheckpointResumeTest, PartialCheckpointResumesBitIdentically)
{
    // The default system, the banked DRAM model and a 2-core shared
    // hierarchy: every counter of each must survive the round trip.
    SystemConfig ddr;
    ddr.mem.dramBackend = "ddr";
    SystemConfig two_cores;
    two_cores.mem.numCores = 2;
    for (const SystemConfig &config : {SystemConfig(), ddr, two_cores}) {
        SCOPED_TRACE(config.mem.dramBackend + " x" +
                     std::to_string(config.mem.numCores));
        config_ = config;
        std::remove(path_.c_str());

        // Reference: an uninterrupted, uncheckpointed run.
        const ExperimentMatrix reference = run(1);

        // A full checkpointed run leaves header + provenance + 6 cell
        // lines; cutting it back to 3 cells mimics a SIGKILL halfway
        // through the matrix (the driver-level smoke test kills a
        // real process; the unit test recreates the identical on-disk
        // state).
        const ExperimentMatrix full = run(1, path_);
        EXPECT_TRUE(matricesIdentical(reference, full))
            << "checkpointing must not perturb results";
        auto lines = readLines();
        ASSERT_EQ(lines.size(), 2u + 6u);
        lines.resize(2 + 3);

        for (unsigned jobs : {1u, 8u}) {
            writeLines(lines);
            const ExperimentMatrix resumed = run(jobs, path_);
            EXPECT_TRUE(matricesIdentical(reference, resumed))
                << "jobs=" << jobs;
            // The restored lines stay as written; only the missing
            // cells are appended after them.
            const auto completed = readLines();
            ASSERT_EQ(completed.size(), 2u + 6u)
                << "resume must complete the file (jobs=" << jobs
                << ")";
            EXPECT_TRUE(std::equal(lines.begin(), lines.end(),
                                   completed.begin()))
                << "jobs=" << jobs;
        }
    }
}

TEST_F(CheckpointResumeTest, ForgedRestoredCellIsNotResimulated)
{
    const ExperimentMatrix reference = run(1);

    // Keep 3 of the 6 cells, the on-disk state of a run killed
    // halfway, and forge the first kept cell with a cycle count no
    // simulation produces, under a valid checksum: if the rerun
    // re-simulated it, the forged value would be replaced.
    run(1, path_);
    std::vector<std::string> partial = readLines();
    ASSERT_EQ(partial.size(), 2u + 6u);
    partial.resize(2 + 3);
    Result<SimResult> first = parseCheckpointCell(partial[2]);
    ASSERT_TRUE(first.ok()) << first.error().str();
    SimResult forged = first.value();
    forged.core.cycles += 1000003;
    partial[2] = checkpointCellLine(forged);
    writeLines(partial);
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, matrixCheckpointHeader(
                                         {"fft-simlarge",
                                          "stencil-default"},
                                         kinds_, config_, insts_, 42)));
        EXPECT_EQ(ckpt.resumedCells(), 3u);
    }

    ExperimentMatrix resumed = run(1, path_);
    unsigned matched = 0;
    for (auto &row : resumed.rows)
        for (auto &cell : row.byPrefetcher)
            if (cell.workload == forged.workload &&
                cell.prefetcher == forged.prefetcher) {
                ++matched;
                EXPECT_EQ(cell.core.cycles, forged.core.cycles)
                    << "a restored cell was re-simulated";
                cell.core.cycles = first.value().core.cycles;
            }
    ASSERT_EQ(matched, 1u);
    // Apart from the forged counter the result equals a clean run.
    EXPECT_TRUE(matricesIdentical(reference, resumed));

    // The restored lines stay as written; only the other half is
    // appended after them.
    const auto full = readLines();
    ASSERT_EQ(full.size(), partial.size() + 3);
    EXPECT_TRUE(std::equal(partial.begin(), partial.end(), full.begin()));
}

/** Caps the size of every file this process writes at @p bytes, with
 *  SIGXFSZ ignored so an over-limit write fails with EFBIG instead of
 *  killing the test; both are restored on destruction. */
class FileSizeLimit
{
  public:
    explicit FileSizeLimit(std::uintmax_t bytes)
        : oldHandler_(std::signal(SIGXFSZ, SIG_IGN))
    {
        ::getrlimit(RLIMIT_FSIZE, &old_);
        rlimit capped = old_;
        capped.rlim_cur = static_cast<rlim_t>(bytes);
        ::setrlimit(RLIMIT_FSIZE, &capped);
    }

    ~FileSizeLimit()
    {
        ::setrlimit(RLIMIT_FSIZE, &old_);
        std::signal(SIGXFSZ, oldHandler_);
    }

    FileSizeLimit(const FileSizeLimit &) = delete;
    FileSizeLimit &operator=(const FileSizeLimit &) = delete;

  private:
    rlimit old_{};
    void (*oldHandler_)(int);
};

TEST_F(CheckpointResumeTest, FailedAppendDegradesToUncheckpointedCell)
{
    const ExperimentMatrix reference = run(1);
    const std::vector<std::string> names = {"fft-simlarge",
                                            "stencil-default"};
    {
        Checkpoint ckpt;
        ASSERT_TRUE(ckpt.open(path_, matrixCheckpointHeader(
                                         names, kinds_, config_, insts_,
                                         42)));
        // The file may not grow past its header and provenance: every
        // append is refused by the kernel.
        FileSizeLimit limit(std::filesystem::file_size(path_));
        Result<void> r = ckpt.append(makeResult());
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), Errc::IoError);

        // runMatrix warns per lost append and runs every cell without
        // the checkpoint; the results do not change.
        EXPECT_TRUE(matricesIdentical(reference, run(1, path_)));
        EXPECT_EQ(readLines().size(), 2u) << "no cell reached the file";
    }

    // With the limit lifted the same file checkpoints normally: a
    // failed append leaves nothing behind that a later one trips on.
    EXPECT_TRUE(matricesIdentical(reference, run(1, path_)));
    EXPECT_EQ(readLines().size(), 2u + 6u);
}

TEST_F(CheckpointResumeTest, CompletedCheckpointSkipsAllSimulation)
{
    const ExperimentMatrix first = run(1, path_);
    const auto lines = readLines();

    // Resuming a finished matrix restores every cell and appends
    // nothing new.
    const ExperimentMatrix again = run(4, path_);
    EXPECT_TRUE(matricesIdentical(first, again));
    EXPECT_EQ(readLines(), lines) << "no rewrites on a no-op resume";
}

TEST_F(CheckpointResumeTest, CheckpointOfAnotherConfigIsRejected)
{
    // The header's config tag covers the DRAM backend, the core count
    // and the pf-opts: a checkpoint written under any other value of
    // them must not resume this experiment.
    const std::vector<std::string> names = {"fft-simlarge",
                                            "stencil-default"};
    auto header_for = [&](const SystemConfig &config) {
        return matrixCheckpointHeader(names, kinds_, config, insts_, 42);
    };
    SystemConfig ddr;
    ddr.mem.dramBackend = "ddr";
    SystemConfig cores;
    cores.mem.numCores = 2;
    SystemConfig opts;
    opts.pfOpts = {"degree=4"};
    for (const SystemConfig &other : {ddr, cores, opts}) {
        {
            Checkpoint written;
            ASSERT_TRUE(written.open(path_, header_for(other)).ok());
        }
        Checkpoint resumed;
        Result<void> r = resumed.open(path_, header_for(SystemConfig()));
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.code(), Errc::InvalidArgument);
        EXPECT_NE(r.error().message.find("different experiment"),
                  std::string::npos)
            << r.error().message;
        std::remove(path_.c_str());
    }

    // pf-opt order is not part of the identity.
    SystemConfig ab, ba;
    ab.pfOpts = {"degree=4", "cbws.table-entries=32"};
    ba.pfOpts = {"cbws.table-entries=32", "degree=4"};
    EXPECT_EQ(header_for(ab).fingerprint, header_for(ba).fingerprint);
}

} // anonymous namespace
} // namespace cbws
