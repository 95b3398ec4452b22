#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/error.hpp"
#include "systems/common/system.hpp"

namespace epgs::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 7;
  cfg.graph.edgefactor = 8;
  cfg.graph.add_weights = true;
  cfg.systems = {"GAP", "Graph500", "GraphBIG", "GraphMat", "PowerGraph"};
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kSssp};
  cfg.num_roots = 4;
  cfg.threads = 2;
  cfg.validate = true;
  return cfg;
}

TEST(Runner, RunsAllSystemsAndValidates) {
  const auto result = run_experiment(small_config());
  EXPECT_EQ(result.roots.size(), 4u);

  // Every system produced algorithm records for the algorithms it
  // supports; the unsupported combinations are silently absent.
  EXPECT_EQ(result.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 4u);
  EXPECT_EQ(result.seconds_of("Graph500", phase::kAlgorithm, "BFS").size(),
            4u);
  EXPECT_TRUE(
      result.seconds_of("Graph500", phase::kAlgorithm, "SSSP").empty());
  EXPECT_TRUE(
      result.seconds_of("PowerGraph", phase::kAlgorithm, "BFS").empty());
  EXPECT_EQ(
      result.seconds_of("PowerGraph", phase::kAlgorithm, "SSSP").size(),
      4u);
}

TEST(Runner, ConstructionSamplingMatchesPaper) {
  const auto result = run_experiment(small_config());
  // GAP and GraphMat rebuild per trial (box plots with 32 points in Fig
  // 2); Graph500 "only constructs its graph once".
  EXPECT_EQ(result.seconds_of("GAP", phase::kBuild).size(), 8u);  // 2 algs
  EXPECT_EQ(result.seconds_of("GraphMat", phase::kBuild).size(), 8u);
  EXPECT_EQ(result.seconds_of("Graph500", phase::kBuild).size(), 1u);
  // Fused systems build exactly once too.
  EXPECT_EQ(result.seconds_of("GraphBIG", phase::kBuild).size(), 1u);
}

TEST(Runner, RawLogsParseAsPhaseLogs) {
  const auto result = run_experiment(small_config());
  ASSERT_EQ(result.raw_logs.size(), 5u);
  for (const auto& [system, text] : result.raw_logs) {
    EXPECT_NO_THROW({
      const auto parsed = PhaseLog::parse_log_text(text);
      EXPECT_FALSE(parsed.entries().empty()) << system;
    });
  }
}

TEST(Runner, RecordsCarryWorkCounters) {
  auto cfg = small_config();
  cfg.systems = {"GAP"};
  const auto result = run_experiment(cfg);
  for (const auto& r : result.records) {
    if (r.phase == phase::kAlgorithm) {
      EXPECT_GT(r.work.edges_processed, 0u);
      EXPECT_GE(r.seconds, 0.0);
      EXPECT_EQ(r.threads, 2);
    }
  }
}

TEST(Runner, TrialIndicesAreComplete) {
  auto cfg = small_config();
  cfg.systems = {"GraphMat"};
  cfg.algorithms = {Algorithm::kBfs};
  const auto result = run_experiment(cfg);
  std::set<int> trials;
  for (const auto& r : result.records) {
    if (r.phase == phase::kAlgorithm) trials.insert(r.trial);
  }
  EXPECT_EQ(trials, (std::set<int>{0, 1, 2, 3}));
}

TEST(Runner, PageRankIterationsExposed) {
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.systems = {"GAP", "GraphMat"};
  cfg.algorithms = {Algorithm::kPageRank};
  cfg.num_roots = 2;
  cfg.threads = 1;
  const auto result = run_experiment(cfg);
  const auto gap_iters = result.iterations_of("GAP", "PageRank");
  const auto gm_iters = result.iterations_of("GraphMat", "PageRank");
  ASSERT_EQ(gap_iters.size(), 2u);
  ASSERT_EQ(gm_iters.size(), 2u);
  // Fig 4: GraphMat's fixpoint criterion needs at least as many
  // iterations as GAP's L1 criterion.
  EXPECT_GE(gm_iters[0], gap_iters[0]);
}

TEST(Runner, EmptyConfigurationsRejected) {
  ExperimentConfig cfg;
  cfg.systems = {};
  cfg.algorithms = {Algorithm::kBfs};
  EXPECT_THROW(run_experiment(cfg), EpgsError);
  cfg.systems = {"GAP"};
  cfg.algorithms = {};
  EXPECT_THROW(run_experiment(cfg), EpgsError);
}

TEST(Runner, FullAlgorithmGridAcrossAllSystems) {
  // Every algorithm (incl. the Section V extensions) on every system
  // (incl. the Ligra extension): record counts must exactly match each
  // system's capability matrix.
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 8;
  cfg.graph.add_weights = true;
  cfg.systems = {"Graph500", "GAP",        "GraphBIG",
                 "GraphMat", "PowerGraph", "Ligra"};
  cfg.algorithms = {Algorithm::kBfs,  Algorithm::kSssp,
                    Algorithm::kPageRank, Algorithm::kCdlp,
                    Algorithm::kLcc,  Algorithm::kWcc,
                    Algorithm::kTc,   Algorithm::kBc};
  cfg.num_roots = 2;
  cfg.threads = 1;
  cfg.reconstruct_per_trial = false;
  const auto result = run_experiment(cfg);

  const struct {
    const char* system;
    int algorithms;  // supported count out of the 8 requested
  } expected[] = {
      {"Graph500", 1},  // BFS only
      {"GAP", 6},       // BFS SSSP PR WCC TC BC
      {"GraphBIG", 8},  // everything
      {"GraphMat", 8},  // everything
      {"PowerGraph", 6},  // no BFS, no BC
      {"Ligra", 5},     // BFS SSSP PR WCC BC
  };
  for (const auto& e : expected) {
    const auto secs = result.seconds_of(e.system, phase::kAlgorithm);
    EXPECT_EQ(secs.size(),
              static_cast<std::size_t>(e.algorithms) * cfg.num_roots)
        << e.system;
  }
}

TEST(RunnerCsv, RoundTrip) {
  auto cfg = small_config();
  cfg.systems = {"GAP"};
  cfg.algorithms = {Algorithm::kBfs};
  const auto result = run_experiment(cfg);
  const auto csv = records_to_csv(result.records);
  const auto back = records_from_csv(csv);
  ASSERT_EQ(back.size(), result.records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].system, result.records[i].system);
    EXPECT_EQ(back[i].phase, result.records[i].phase);
    EXPECT_EQ(back[i].trial, result.records[i].trial);
    EXPECT_NEAR(back[i].seconds, result.records[i].seconds, 1e-9);
    EXPECT_EQ(back[i].work.edges_processed,
              result.records[i].work.edges_processed);
  }
}

TEST(RunnerCsv, HeaderPresent) {
  const auto csv = records_to_csv({});
  EXPECT_EQ(csv.rfind("dataset,system,algorithm", 0), 0u);
  EXPECT_TRUE(records_from_csv(csv).empty());
}

TEST(RunnerCsv, OutcomeColumnRoundTrips) {
  RunRecord ok;
  ok.system = "GAP";
  ok.phase = "run algorithm";
  RunRecord dnf;
  dnf.system = "GraphMat";
  dnf.phase = "run algorithm";
  dnf.outcome = Outcome::kTimeout;
  const auto csv = records_to_csv({ok, dnf});
  EXPECT_NE(csv.find(",outcome"), std::string::npos);
  EXPECT_NE(csv.find(",timeout"), std::string::npos);
  const auto back = records_from_csv(csv);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].outcome, Outcome::kSuccess);
  EXPECT_EQ(back[1].outcome, Outcome::kTimeout);
}

TEST(RunnerCsv, WrongColumnCountRejected) {
  const auto csv = records_to_csv({});
  // 11 fields (the pre-outcome format) must be rejected, not half-parsed.
  EXPECT_THROW(records_from_csv(csv + "d,s,a,1,0,p,0.5,0,0,0,3\n"),
               EpgsError);
  // So must 13.
  EXPECT_THROW(
      records_from_csv(csv + "d,s,a,1,0,p,0.5,0,0,0,3,success,junk\n"),
      EpgsError);
}

TEST(RunnerCsv, MalformedFieldsRejectedWithEpgsError) {
  const auto header = records_to_csv({});
  EXPECT_THROW(
      records_from_csv(header + "d,s,a,NaNthreads,0,p,0.5,0,0,0,,success\n"),
      EpgsError);
  EXPECT_THROW(
      records_from_csv(header + "d,s,a,1,0,p,notasecond,0,0,0,,success\n"),
      EpgsError);
  EXPECT_THROW(
      records_from_csv(header + "d,s,a,1,0,p,0.5,0,0,0,,exploded\n"),
      EpgsError);
  // Whole-field strictness: no numeric prefix, no negative counter.
  EXPECT_THROW(
      records_from_csv(header + "d,s,a,4abc,0,p,0.5,0,0,0,,success\n"),
      EpgsError);
  EXPECT_THROW(
      records_from_csv(header + "d,s,a,1,0,p,0.5xyz,0,0,0,,success\n"),
      EpgsError);
  EXPECT_THROW(
      records_from_csv(header + "d,s,a,1,0,p,0.5,-1,0,0,,success\n"),
      EpgsError);
}

TEST(RunnerCsv, EmptySecondsAndCountersReadAsZero) {
  const auto back =
      records_from_csv(records_to_csv({}) + "d,s,a,2,1,p,,,,,,success,,\n");
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].threads, 2);
  EXPECT_EQ(back[0].trial, 1);
  EXPECT_EQ(back[0].seconds, 0.0);
  EXPECT_EQ(back[0].work.edges_processed, 0u);
  EXPECT_EQ(back[0].work.vertex_updates, 0u);
  EXPECT_EQ(back[0].work.bytes_touched, 0u);
}

TEST(RunnerCsv, LegacyTwelveColumnFileParses) {
  // The pre-checkpoint format: no attempts / resumed_from columns.
  const std::string legacy =
      "dataset,system,algorithm,threads,trial,phase,seconds,edges,vupdates,"
      "bytes,iterations,outcome\n"
      "kron-s8,GAP,BFS,4,0,run algorithm,1e-05,2048,256,65536,7,success\n";
  const auto back = records_from_csv(legacy);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].system, "GAP");
  EXPECT_EQ(back[0].threads, 4);
  EXPECT_EQ(back[0].seconds, 1e-05);
  EXPECT_EQ(back[0].work.edges_processed, 2048u);
  EXPECT_EQ(back[0].work.bytes_touched, 65536u);
  EXPECT_EQ(back[0].extra.at("iterations"), "7");
  EXPECT_EQ(back[0].extra.count("attempts"), 0u);
  EXPECT_EQ(back[0].outcome, Outcome::kSuccess);
}

TEST(RunnerCsv, ForeignHeaderRejected) {
  EXPECT_THROW(records_from_csv("a,b,c\n1,2,3\n"), EpgsError);
  EXPECT_THROW(records_from_csv(""), EpgsError);
}

}  // namespace
}  // namespace epgs::harness
