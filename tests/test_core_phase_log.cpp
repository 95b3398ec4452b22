#include "core/phase_log.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace epgs {
namespace {

PhaseLog sample_log() {
  PhaseLog log;
  log.set_attr("system", "GraphMat");
  log.set_attr("dataset", "dota-league");
  log.add("file read", 2.65211,
          WorkStats{.edges_processed = 50870313, .bytes_touched = 1 << 20});
  log.add("build graph", 5.91229);
  log.add("run algorithm", 0.149445, WorkStats{.vertex_updates = 61670},
          {{"alg", "pagerank"}, {"iterations", "31"}});
  return log;
}

TEST(PhaseLog, TotalsAndFind) {
  const auto log = sample_log();
  EXPECT_DOUBLE_EQ(log.total("file read"), 2.65211);
  EXPECT_DOUBLE_EQ(log.total("missing"), 0.0);
  EXPECT_NEAR(log.total_all(), 2.65211 + 5.91229 + 0.149445, 1e-12);
  ASSERT_TRUE(log.find("run algorithm").has_value());
  EXPECT_EQ(log.find("run algorithm")->extra.at("iterations"), "31");
  EXPECT_FALSE(log.find("missing").has_value());
}

TEST(PhaseLog, RepeatedPhaseSums) {
  PhaseLog log;
  log.add("run algorithm", 1.0);
  log.add("run algorithm", 2.5);
  EXPECT_DOUBLE_EQ(log.total("run algorithm"), 3.5);
  EXPECT_EQ(log.entries().size(), 2u);
}

TEST(PhaseLog, TotalWorkAggregates) {
  const auto log = sample_log();
  const auto w = log.total_work();
  EXPECT_EQ(w.edges_processed, 50870313u);
  EXPECT_EQ(w.vertex_updates, 61670u);
  EXPECT_EQ(w.bytes_touched, static_cast<std::uint64_t>(1 << 20));
}

TEST(PhaseLog, TextRoundTrip) {
  const auto log = sample_log();
  const auto text = log.to_log_text();
  const auto parsed = PhaseLog::parse_log_text(text);

  ASSERT_EQ(parsed.entries().size(), log.entries().size());
  for (std::size_t i = 0; i < log.entries().size(); ++i) {
    const auto& a = log.entries()[i];
    const auto& b = parsed.entries()[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_NEAR(a.seconds, b.seconds, 1e-9 * (1.0 + a.seconds));
    EXPECT_EQ(a.work.edges_processed, b.work.edges_processed);
    EXPECT_EQ(a.work.vertex_updates, b.work.vertex_updates);
    EXPECT_EQ(a.work.bytes_touched, b.work.bytes_touched);
    EXPECT_EQ(a.extra, b.extra);
  }
  EXPECT_EQ(parsed.attrs(), log.attrs());
}

TEST(PhaseLog, PhaseNameMayContainColons) {
  PhaseLog log;
  log.add("run algorithm: part 2", 0.5);
  const auto parsed = PhaseLog::parse_log_text(log.to_log_text());
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_EQ(parsed.entries()[0].name, "run algorithm: part 2");
}

TEST(PhaseLog, EmptyLogRoundTrips) {
  const auto parsed = PhaseLog::parse_log_text(PhaseLog{}.to_log_text());
  EXPECT_TRUE(parsed.entries().empty());
  EXPECT_TRUE(parsed.attrs().empty());
}

TEST(PhaseLog, ParseSkipsBlankLines) {
  const auto parsed =
      PhaseLog::parse_log_text("\n\n* build graph: 1.5 sec\n\n");
  ASSERT_EQ(parsed.entries().size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.entries()[0].seconds, 1.5);
}

TEST(PhaseLog, ParseRejectsMalformedLines) {
  EXPECT_THROW(PhaseLog::parse_log_text("garbage line"),
               std::runtime_error);
  EXPECT_THROW(PhaseLog::parse_log_text("* missing duration\n"),
               std::runtime_error);
  EXPECT_THROW(PhaseLog::parse_log_text("* phase: 1.0 minutes\n"),
               std::runtime_error);
  EXPECT_THROW(PhaseLog::parse_log_text("* phase: 1.0 sec badtoken\n"),
               std::runtime_error);
  EXPECT_THROW(PhaseLog::parse_log_text("* phase: 1.0 sec edges=abc\n"),
               std::runtime_error);
  EXPECT_THROW(PhaseLog::parse_log_text("# attr without equals\n"),
               std::runtime_error);
  // Numbers are whole-token strict: no garbage, no numeric prefix.
  for (const char* bad :
       {"* p: abc sec\n", "* p: 1.5x sec\n",
        "* p: 1 sec\n@ iter=1 sec=0.5junk front=1 edges=1\n"}) {
    try {
      (void)PhaseLog::parse_log_text(bad);
      ADD_FAILURE() << "accepted: " << bad;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("PhaseLog:", 0), 0u) << e.what();
    }
  }
}

TEST(PhaseLog, ClearResets) {
  auto log = sample_log();
  log.clear();
  EXPECT_TRUE(log.entries().empty());
  EXPECT_TRUE(log.attrs().empty());
  EXPECT_DOUBLE_EQ(log.total_all(), 0.0);
}

}  // namespace
}  // namespace epgs
