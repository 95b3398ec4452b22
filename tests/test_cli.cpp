// The epg tool: arg parsing and all five pipeline subcommands, driven
// in-process through cli::dispatch.
#include "cli/commands.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/args.hpp"
#include "core/error.hpp"
#include "graph/snap_io.hpp"
#include "harness/runner.hpp"
#include "systems/common/fault_injection.hpp"

namespace epgs::cli {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() : path_(fs::temp_directory_path() /
                    ("epgs_cli_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter_++))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

int run_cli(const std::vector<std::string>& argv, std::string* out = nullptr) {
  std::ostringstream o, e;
  const int rc = dispatch(argv, o, e);
  if (out != nullptr) *out = o.str() + e.str();
  return rc;
}

TEST(CliArgs, ParseOptionsFlagsPositional) {
  const auto args = Args::parse(
      {"--scale", "12", "--validate", "pos1", "--systems", "GAP,GraphMat",
       "pos2"});
  EXPECT_EQ(args.get_int("scale", 0), 12);
  EXPECT_TRUE(args.has("validate"));
  EXPECT_FALSE(args.has("threads"));
  EXPECT_EQ(args.get_list("systems"),
            (std::vector<std::string>{"GAP", "GraphMat"}));
  EXPECT_EQ(args.positional(), (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(CliArgs, TypedGettersValidate) {
  const auto args = Args::parse({"--scale", "abc", "--frac", "0.5"});
  EXPECT_THROW((void)args.get_int("scale", 0), EpgsError);
  EXPECT_DOUBLE_EQ(args.get_double("frac", 0.0), 0.5);
  EXPECT_EQ(args.get_int("missing", 7), 7);
  EXPECT_THROW(args.expect_known({"scale"}), EpgsError);
  EXPECT_NO_THROW(args.expect_known({"scale", "frac"}));
}

TEST(CliArgs, NumbersAreWholeTokenStrict) {
  const auto args = Args::parse({"--mem-limit", "-1", "--seed", "7",
                                 "--scale", "12x", "--timeout", "+2"});
  // "-1" must not wrap to 2^64-1 MiB.
  EXPECT_THROW((void)args.get_u64("mem-limit", 0), EpgsError);
  EXPECT_EQ(args.get_u64("seed", 0), 7u);
  EXPECT_THROW((void)args.get_int("scale", 0), EpgsError);
  EXPECT_THROW((void)args.get_double("timeout", 0.0), EpgsError);
}

TEST(CliArgs, KillAtCheckpointEnvIsStrict) {
  fault::disarm_kill_at_checkpoint();
  for (const char* bad : {"3x", "-1", "GAP:", ""}) {
    ::setenv("EPGS_KILL_AT_CKPT", bad, 1);
    if (*bad == '\0') {
      EXPECT_NO_THROW(fault::arm_kill_from_env());  // empty = unset
    } else {
      EXPECT_THROW(fault::arm_kill_from_env(), EpgsError) << bad;
    }
    EXPECT_FALSE(fault::kill_armed()) << bad;
  }
  ::setenv("EPGS_KILL_AT_CKPT", "GAP:3", 1);
  fault::arm_kill_from_env();
  EXPECT_TRUE(fault::kill_armed());
  fault::disarm_kill_at_checkpoint();
  ::unsetenv("EPGS_KILL_AT_CKPT");
  fault::arm_kill_from_env();
  EXPECT_FALSE(fault::kill_armed());
}

TEST(CliArgs, EmptyListWhenAbsent) {
  const auto args = Args::parse({});
  EXPECT_TRUE(args.get_list("systems").empty());
}

TEST(Cli, UnknownCommandFails) {
  std::string out;
  EXPECT_NE(run_cli({"frobnicate"}, &out), 0);
  EXPECT_NE(out.find("unknown command"), std::string::npos);
  EXPECT_NE(run_cli({}, &out), 0);
}

TEST(Cli, HelpSucceeds) {
  std::string out;
  EXPECT_EQ(run_cli({"help"}, &out), 0);
  EXPECT_NE(out.find("generate"), std::string::npos);
  EXPECT_NE(out.find("analyze"), std::string::npos);
}

TEST(Cli, UnknownOptionRejected) {
  std::string out;
  EXPECT_NE(run_cli({"generate", "--scael", "8"}, &out), 0);
  EXPECT_NE(out.find("--scael"), std::string::npos);
}

TEST(Cli, GenerateWritesSnap) {
  TempDir dir;
  const auto out_path = (dir.path() / "g.snap").string();
  std::string out;
  ASSERT_EQ(run_cli({"generate", "--kind", "kron", "--scale", "7",
                     "--edgefactor", "8", "--out", out_path},
                    &out),
            0);
  const auto el = read_snap_file(out_path);
  EXPECT_EQ(el.num_vertices, 128u);
  EXPECT_GT(el.num_edges(), 0u);
  EXPECT_NE(out.find("128 vertices"), std::string::npos);
}

TEST(Cli, GenerateWeighted) {
  TempDir dir;
  const auto out_path = (dir.path() / "w.snap").string();
  ASSERT_EQ(run_cli({"generate", "--kind", "kron", "--scale", "6",
                     "--weights", "--max-weight", "9", "--out", out_path}),
            0);
  const auto el = read_snap_file(out_path);
  ASSERT_TRUE(el.weighted);
  for (const auto& e : el.edges) {
    EXPECT_LE(e.w, 9.0f);
  }
}

TEST(Cli, HomogenizeProducesSevenFormats) {
  TempDir dir;
  const auto snap = (dir.path() / "g.snap").string();
  ASSERT_EQ(run_cli({"generate", "--kind", "kron", "--scale", "6", "--out",
                     snap}),
            0);
  std::string out;
  ASSERT_EQ(run_cli({"homogenize", "--in", snap, "--out",
                     (dir.path() / "formats").string()},
                    &out),
            0);
  EXPECT_NE(out.find("7 formats"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir.path() / "formats" / "g.mtx"));
  EXPECT_TRUE(fs::exists(dir.path() / "formats" / "g.g500"));
}

TEST(Cli, FullPipelineRunParseAnalyze) {
  TempDir dir;
  const auto csv1 = (dir.path() / "direct.csv").string();
  const auto logdir = (dir.path() / "logs").string();

  // Phase 3: run, writing both the CSV and the raw logs.
  std::string out;
  ASSERT_EQ(run_cli({"run", "--kind", "kron", "--scale", "7",
                     "--systems", "GAP,Graph500", "--algorithms", "BFS",
                     "--roots", "3", "--threads", "1", "--validate",
                     "--no-reconstruct", "--csv", csv1, "--logdir",
                     logdir},
                    &out),
            0)
      << out;
  EXPECT_TRUE(fs::exists(dir.path() / "logs" / "GAP.log"));

  // Phase 4: independently parse the raw logs into a second CSV.
  const auto csv2 = (dir.path() / "parsed.csv").string();
  ASSERT_EQ(run_cli({"parse", "--logdir", logdir, "--csv", csv2,
                     "--threads", "1"},
                    &out),
            0)
      << out;

  // Both CSVs must contain the same BFS algorithm records.
  std::ifstream f1(csv1), f2(csv2);
  std::stringstream b1, b2;
  b1 << f1.rdbuf();
  b2 << f2.rdbuf();
  const auto recs1 = harness::records_from_csv(b1.str());
  const auto recs2 = harness::records_from_csv(b2.str());
  auto count_alg = [](const std::vector<harness::RunRecord>& rs) {
    int n = 0;
    for (const auto& r : rs) {
      if (r.phase == phase::kAlgorithm) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_alg(recs1), 6);  // 2 systems x 3 roots
  EXPECT_EQ(count_alg(recs2), 6);

  // Phase 5: analyze the parsed CSV and emit plot data.
  const auto prefix = (dir.path() / "report").string();
  ASSERT_EQ(run_cli({"analyze", "--csv", csv2, "--out", prefix}, &out), 0)
      << out;
  EXPECT_NE(out.find("GAP"), std::string::npos);
  EXPECT_TRUE(fs::exists(prefix + ".dat"));
  EXPECT_TRUE(fs::exists(prefix + ".R"));
}

TEST(Cli, ParseRequiresLogdir) {
  std::string out;
  EXPECT_NE(run_cli({"parse"}, &out), 0);
  EXPECT_NE(out.find("--logdir"), std::string::npos);
}

TEST(Cli, AnalyzeMissingCsvFails) {
  std::string out;
  EXPECT_NE(run_cli({"analyze", "--csv", "/nonexistent.csv"}, &out), 0);
}

TEST(Cli, TuneReportsBestParameters) {
  std::string out;
  ASSERT_EQ(run_cli({"tune", "--kind", "kron", "--scale", "7", "--roots",
                     "2"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("best alpha="), std::string::npos);
  EXPECT_NE(out.find("best delta="), std::string::npos);
}

TEST(Cli, GraphalyticsCommandRendersTableAndHtml) {
  TempDir dir;
  const auto html = (dir.path() / "report.html").string();
  std::string out;
  ASSERT_EQ(run_cli({"graphalytics", "--kind", "kron", "--scale", "7",
                     "--systems", "GraphMat,GraphBIG", "--algorithms",
                     "WCC", "--threads", "1", "--workdir",
                     (dir.path() / "work").string(), "--html", html},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("GraphMat"), std::string::npos);
  EXPECT_NE(out.find("WCC"), std::string::npos);
  EXPECT_TRUE(fs::exists(html));
}

TEST(Cli, PredictCommandAnswersFeasibility) {
  std::string out;
  ASSERT_EQ(run_cli({"predict", "--system", "GAP", "--algorithm", "BFS",
                     "--scale", "20", "--probe-small", "7",
                     "--probe-large", "8", "--time-limit", "0.000001",
                     "--memory-limit-mib", "1"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("predicted"), std::string::npos);
  EXPECT_NE(out.find("feasible"), std::string::npos);
  EXPECT_NE(out.find("NO"), std::string::npos)
      << "scale 20 cannot fit a microsecond/1MiB budget";
}

TEST(Cli, StatsRendersDatasetSummary) {
  std::string out;
  ASSERT_EQ(run_cli({"stats", "--kind", "kron", "--scale", "7"}, &out), 0)
      << out;
  EXPECT_NE(out.find("kron-s7"), std::string::npos);
  EXPECT_NE(out.find("vertices            128"), std::string::npos);
  EXPECT_NE(out.find("density"), std::string::npos);
}

TEST(Cli, StatsOnSnapFile) {
  TempDir dir;
  const auto snap = (dir.path() / "g.snap").string();
  ASSERT_EQ(run_cli({"generate", "--kind", "kron", "--scale", "6",
                     "--weights", "--out", snap}),
            0);
  std::string out;
  ASSERT_EQ(run_cli({"stats", "--kind", "snap", "--graph", snap,
                     "--no-symmetrize", "--no-dedupe"},
                    &out),
            0)
      << out;
  EXPECT_NE(out.find("weights"), std::string::npos);
}

TEST(Cli, RunExitsNonzeroOnDnfUnlessAllowed) {
  TempDir dir;
  const auto csv = (dir.path() / "dnf.csv").string();
  const std::vector<std::string> argv = {
      "run",     "--kind",    "kron",  "--scale",   "6",
      "--systems", "GAP",     "--algorithms", "BFS",
      "--roots", "2",         "--threads", "1",
      "--csv",   csv};

  std::string out;
  {
    fault::Scoped fault({.system = "GAP",
                         .kind = fault::Kind::kError,
                         .max_fires = 1,
                         .phase = "bfs"});
    EXPECT_EQ(run_cli(argv, &out), 3)
        << "a sweep with DNFs must not exit 0: " << out;
  }
  EXPECT_NE(out.find("did not finish"), std::string::npos);
  EXPECT_NE(out.find("outcomes:"), std::string::npos);
  EXPECT_NE(out.find("crash"), std::string::npos);

  // Same sweep, same fault, --allow-dnf: partial data is accepted.
  {
    fault::Scoped fault({.system = "GAP",
                         .kind = fault::Kind::kError,
                         .max_fires = 1,
                         .phase = "bfs"});
    auto tolerant = argv;
    tolerant.emplace_back("--allow-dnf");
    EXPECT_EQ(run_cli(tolerant, &out), 0) << out;
  }
  EXPECT_NE(out.find("tolerated by --allow-dnf"), std::string::npos);

  // The CSV still records the DNF row for analysis.
  std::ifstream f(csv);
  std::stringstream buf;
  buf << f.rdbuf();
  const auto recs = harness::records_from_csv(buf.str());
  bool has_crash = false;
  for (const auto& r : recs) has_crash |= r.outcome == Outcome::kCrash;
  EXPECT_TRUE(has_crash);
}

TEST(Cli, RunJournalAndResumeFlags) {
  TempDir dir;
  const auto csv = (dir.path() / "r.csv").string();
  const auto journal = (dir.path() / "j.txt").string();
  std::string out;
  ASSERT_EQ(run_cli({"run", "--kind", "kron", "--scale", "6", "--systems",
                     "GAP", "--algorithms", "BFS", "--roots", "2",
                     "--threads", "1", "--csv", csv, "--journal", journal},
                    &out),
            0)
      << out;
  ASSERT_TRUE(fs::exists(journal));
  ASSERT_EQ(run_cli({"run", "--kind", "kron", "--scale", "6", "--systems",
                     "GAP", "--algorithms", "BFS", "--roots", "2",
                     "--threads", "1", "--csv", csv, "--journal", journal,
                     "--resume"},
                    &out),
            0)
      << out;
  // --resume without --journal is a usage error.
  EXPECT_NE(run_cli({"run", "--kind", "kron", "--scale", "6", "--systems",
                     "GAP", "--algorithms", "BFS", "--roots", "1",
                     "--threads", "1", "--csv", csv, "--resume"},
                    &out),
            0);
  EXPECT_NE(out.find("--resume requires --journal"), std::string::npos);
}

TEST(Cli, RunSsspAutoWeights) {
  TempDir dir;
  const auto csv = (dir.path() / "sssp.csv").string();
  std::string out;
  ASSERT_EQ(run_cli({"run", "--kind", "kron", "--scale", "6",
                     "--systems", "GAP", "--algorithms", "SSSP",
                     "--roots", "2", "--threads", "1", "--no-reconstruct",
                     "--csv", csv},
                    &out),
            0)
      << out;
  EXPECT_TRUE(fs::exists(csv));
}

TEST(Cli, PrepareMissThenHit) {
  TempDir dir;
  const auto cache = (dir.path() / "cache").string();
  const std::vector<std::string> argv = {
      "prepare", "--kind", "kron", "--scale", "6", "--edgefactor", "4",
      "--cache-dir", cache};
  std::string out;
  ASSERT_EQ(run_cli(argv, &out), 0) << out;
  EXPECT_NE(out.find("cache miss"), std::string::npos);
  ASSERT_EQ(run_cli(argv, &out), 0) << out;
  EXPECT_NE(out.find("cache hit"), std::string::npos);
}

TEST(Cli, RunCacheDirWarmHitAndNoCacheBypass) {
  TempDir dir;
  const auto cache = (dir.path() / "cache").string();
  const auto csv = (dir.path() / "r.csv").string();
  const std::vector<std::string> base = {
      "run", "--kind", "kron", "--scale", "6", "--edgefactor", "4",
      "--systems", "GAP", "--algorithms", "BFS", "--roots", "2",
      "--threads", "1", "--csv", csv};

  auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> argv = base;
    argv.insert(argv.end(), extra);
    return argv;
  };

  std::string out;
  ASSERT_EQ(run_cli(with({"--cache-dir", cache}), &out), 0) << out;
  EXPECT_NE(out.find("cache miss"), std::string::npos);

  // epg prepare warms exactly the cache epg run reads.
  ASSERT_EQ(run_cli(with({"--cache-dir", cache}), &out), 0) << out;
  EXPECT_NE(out.find("cache hit"), std::string::npos);

  ASSERT_EQ(run_cli(with({"--cache-dir", cache, "--no-cache"}), &out), 0)
      << out;
  EXPECT_EQ(out.find("cache hit"), std::string::npos) << out;
  EXPECT_EQ(out.find("cache miss"), std::string::npos) << out;
}

}  // namespace
}  // namespace epgs::cli
