// GraphMat-specific behaviour: DCSR storage, the SpMV vertex-program
// engine, and the infinity-norm PageRank stopping criterion.
#include "systems/graphmat/graphmat_system.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/parallel.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/transforms.hpp"
#include "systems/common/reference.hpp"
#include "systems/graphmat/dcsr.hpp"
#include "test_util.hpp"

namespace epgs::systems {
namespace {

using graphmat_detail::DCSR;

TEST(Dcsr, OnlyNonEmptyRowsStored) {
  EdgeList el;
  el.num_vertices = 100;
  el.edges = {Edge{5, 6, 1.0f}, Edge{5, 7, 1.0f}, Edge{90, 5, 1.0f}};
  const auto m = DCSR::from_edges(el, /*transpose=*/false);
  EXPECT_EQ(m.num_vertices(), 100u);
  EXPECT_EQ(m.num_nonzeros(), 3u);
  EXPECT_EQ(m.num_rows(), 2u);  // rows 5 and 90 only
  EXPECT_EQ(m.row_id(0), 5u);
  EXPECT_EQ(m.row_id(1), 90u);
  EXPECT_EQ(m.row_cols(0).size(), 2u);
}

TEST(Dcsr, FindRow) {
  EdgeList el;
  el.num_vertices = 10;
  el.edges = {Edge{2, 3, 1.0f}, Edge{8, 1, 1.0f}};
  const auto m = DCSR::from_edges(el, false);
  EXPECT_EQ(m.find_row(2), 0u);
  EXPECT_EQ(m.find_row(8), 1u);
  EXPECT_EQ(m.find_row(3), DCSR::npos);
  EXPECT_EQ(m.find_row(9), DCSR::npos);
}

TEST(Dcsr, TransposeIsInAdjacency) {
  EdgeList el;
  el.num_vertices = 4;
  el.edges = {Edge{0, 3, 1.0f}, Edge{1, 3, 1.0f}, Edge{2, 0, 1.0f}};
  const auto t = DCSR::from_edges(el, /*transpose=*/true);
  const auto row3 = t.find_row(3);
  ASSERT_NE(row3, DCSR::npos);
  const auto cols = t.row_cols(row3);
  ASSERT_EQ(cols.size(), 2u);
  EXPECT_EQ(cols[0], 0u);  // sorted sources
  EXPECT_EQ(cols[1], 1u);
}

TEST(Dcsr, WeightsTravelWithColumns) {
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 2, 9.0f}, Edge{0, 1, 4.0f}};
  const auto m = DCSR::from_edges(el, false);
  ASSERT_TRUE(m.weighted());
  const auto cols = m.row_cols(0);
  const auto vals = m.row_vals(0);
  EXPECT_EQ(cols[0], 1u);
  EXPECT_FLOAT_EQ(vals[0], 4.0f);
  EXPECT_EQ(cols[1], 2u);
  EXPECT_FLOAT_EQ(vals[1], 9.0f);
}

TEST(Dcsr, EmptyMatrix) {
  EdgeList el;
  el.num_vertices = 5;
  const auto m = DCSR::from_edges(el, false);
  EXPECT_EQ(m.num_rows(), 0u);
  EXPECT_EQ(m.num_nonzeros(), 0u);
  EXPECT_GT(m.bytes(), 0u);  // offsets array exists
}

TEST(Dcsr, RowsMatchSerialCsrOracle) {
  // DCSR is the shared row build compressed to its non-empty rows: in
  // both orientations and at every thread count, each stored row must
  // equal the serial CSR oracle's row, and each dropped row must be
  // empty there.
  // The input is made on one thread: under TSan (this test carries the
  // "frontier" label) only the builder's own regions should run a team.
  const EdgeList el = [] {
    ThreadScope one_thread(1);
    gen::KroneckerParams p;
    p.scale = 9;
    p.edgefactor = 8;
    return with_random_weights(gen::kronecker(p), 3, 15);
  }();
  for (const int threads : {1, 2, 3, 8}) {
    ThreadScope scope(threads);
    for (const bool transpose : {false, true}) {
      const auto m = DCSR::from_edges(el, transpose);
      const auto ser = CSRGraph::from_edges_serial(el, transpose);
      EXPECT_EQ(m.num_nonzeros(), ser.num_edges());
      std::size_t r = 0;
      for (vid_t v = 0; v < el.num_vertices; ++v) {
        if (ser.degree(v) == 0) {
          EXPECT_EQ(m.find_row(v), DCSR::npos) << v;
          continue;
        }
        ASSERT_LT(r, m.num_rows());
        ASSERT_EQ(m.row_id(r), v) << threads << transpose;
        const auto cols = m.row_cols(r);
        const auto vals = m.row_vals(r);
        const auto nbrs = ser.neighbors(v);
        const auto ws = ser.edge_weights(v);
        EXPECT_EQ(std::vector<vid_t>(cols.begin(), cols.end()),
                  std::vector<vid_t>(nbrs.begin(), nbrs.end()))
            << threads << transpose << v;
        EXPECT_EQ(std::vector<weight_t>(vals.begin(), vals.end()),
                  std::vector<weight_t>(ws.begin(), ws.end()))
            << threads << transpose << v;
        ++r;
      }
      EXPECT_EQ(r, m.num_rows()) << threads << transpose;
    }
  }
}

TEST(GraphMatSystem, BfsDepthsViaSpmv) {
  GraphMatSystem sys;
  sys.set_edges(test::line_graph(6));
  sys.build();
  const auto r = sys.bfs(0);
  EXPECT_EQ(r.levels(), (std::vector<vid_t>{0, 1, 2, 3, 4, 5}));
  // The min-sender tie-break makes parents deterministic.
  EXPECT_EQ(r.parent, (std::vector<vid_t>{0, 0, 1, 2, 3, 4}));
}

TEST(GraphMatSystem, PageRankIgnoresEpsilonAndRunsToFixpoint) {
  // "with GraphMat there is no computation of |p_k(i) - p_k(i-1)|" — a
  // huge epsilon must not stop it early.
  GraphMatSystem sys;
  sys.set_edges(test::pagerank_graph());
  sys.build();
  PageRankParams loose;
  loose.epsilon = 1.0;  // would stop the others after one iteration
  const auto pr_loose = sys.pagerank(loose);
  PageRankParams tight;
  tight.epsilon = 1e-12;
  const auto pr_tight = sys.pagerank(tight);
  EXPECT_EQ(pr_loose.iterations, pr_tight.iterations)
      << "GraphMat's stopping criterion must not depend on epsilon";
  EXPECT_GT(pr_loose.iterations, 3);
}

TEST(GraphMatSystem, PageRankIteratesAtLeastAsLongAsReference) {
  // The infinity-norm-zero criterion is strictly stricter than the L1
  // epsilon criterion — the mechanism behind GraphMat's tall bar in the
  // right panel of Fig 4.
  const auto el = test::pagerank_graph();
  GraphMatSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el, true);
  PageRankParams params;
  const auto truth = ref::pagerank(out, in, params);
  const auto pr = sys.pagerank(params);
  EXPECT_GE(pr.iterations, truth.iterations);
}

TEST(GraphMatSystem, PageRankTerminatesAtFloatFixpoint) {
  GraphMatSystem sys;
  sys.set_edges(test::cycle_graph(16));
  sys.build();
  PageRankParams params;
  params.max_iterations = 1000;
  const auto pr = sys.pagerank(params);
  EXPECT_LT(pr.iterations, 1000) << "must reach an exact float fixpoint";
}

TEST(GraphMatSystem, SsspViaSemiringMinPlus) {
  EdgeList el;
  el.num_vertices = 4;
  el.weighted = true;
  el.edges = {Edge{0, 1, 4.0f}, Edge{0, 2, 1.0f}, Edge{2, 1, 1.0f},
              Edge{1, 3, 1.0f}};
  GraphMatSystem sys;
  sys.set_edges(el);
  sys.build();
  const auto r = sys.sssp(0);
  EXPECT_FLOAT_EQ(r.dist[1], 2.0f);
  EXPECT_FLOAT_EQ(r.dist[3], 3.0f);
}

TEST(GraphMatSystem, FullMatrixScanCostModel) {
  // The engine walks the whole compressed structure per iteration: BFS on
  // a length-L path must report edge work ~ L * nnz, not ~ nnz.
  const vid_t n = 32;
  GraphMatSystem sys;
  sys.set_edges(test::line_graph(n));
  sys.build();
  (void)sys.bfs(0);
  const auto alg = sys.log().find(phase::kAlgorithm);
  ASSERT_TRUE(alg.has_value());
  const auto nnz = 2u * (n - 1);
  EXPECT_GT(alg->work.edges_processed, static_cast<std::uint64_t>(nnz) * (n / 2))
      << "GraphMat's dense-scan overhead should be visible in the counters";
}

}  // namespace
}  // namespace epgs::systems
