#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "gen/kronecker.hpp"
#include "graph/homogenizer.hpp"
#include "graph/transforms.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

EdgeList small_directed() {
  EdgeList el;
  el.num_vertices = 4;
  el.directed = true;
  el.edges = {Edge{0, 2, 1.0f}, Edge{0, 1, 1.0f}, Edge{1, 3, 1.0f},
              Edge{2, 3, 1.0f}, Edge{3, 0, 1.0f}};
  return el;
}

TEST(Csr, BuildsOutAdjacency) {
  const auto g = CSRGraph::from_edges(small_directed());
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 5u);
  const auto n0 = g.neighbors(0);
  ASSERT_EQ(n0.size(), 2u);
  EXPECT_EQ(n0[0], 1u);  // sorted
  EXPECT_EQ(n0[1], 2u);
  EXPECT_EQ(g.degree(3), 1u);
  EXPECT_EQ(g.neighbors(3)[0], 0u);
}

TEST(Csr, TransposeBuildsInAdjacency) {
  const auto g = CSRGraph::from_edges(small_directed(), /*transpose=*/true);
  const auto in3 = g.neighbors(3);
  ASSERT_EQ(in3.size(), 2u);
  EXPECT_EQ(in3[0], 1u);
  EXPECT_EQ(in3[1], 2u);
  EXPECT_EQ(g.degree(0), 1u);  // only 3 -> 0
}

TEST(Csr, WeightsFollowSort) {
  EdgeList el;
  el.num_vertices = 3;
  el.weighted = true;
  el.edges = {Edge{0, 2, 20.0f}, Edge{0, 1, 10.0f}};
  const auto g = CSRGraph::from_edges(el);
  ASSERT_TRUE(g.weighted());
  const auto nbrs = g.neighbors(0);
  const auto ws = g.edge_weights(0);
  ASSERT_EQ(nbrs.size(), 2u);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_FLOAT_EQ(ws[0], 10.0f);
  EXPECT_EQ(nbrs[1], 2u);
  EXPECT_FLOAT_EQ(ws[1], 20.0f);
}

TEST(Csr, HasEdge) {
  const auto g = CSRGraph::from_edges(small_directed());
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(3, 0));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(Csr, EmptyGraph) {
  EdgeList el;
  el.num_vertices = 3;
  const auto g = CSRGraph::from_edges(el);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_TRUE(g.neighbors(2).empty());
}

TEST(Csr, OutOfRangeEndpointThrows) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 5, 1.0f}};
  EXPECT_THROW(CSRGraph::from_edges(el), EpgsError);
}

TEST(Csr, OffsetsAreMonotone) {
  const auto g = CSRGraph::from_edges(test::two_triangles());
  const auto& off = g.offsets();
  ASSERT_EQ(off.size(), g.num_vertices() + 1u);
  EXPECT_EQ(off.front(), 0u);
  EXPECT_EQ(off.back(), g.num_edges());
  EXPECT_TRUE(std::is_sorted(off.begin(), off.end()));
}

TEST(Csr, BytesAccountsForStorage) {
  const auto g = CSRGraph::from_edges(test::line_graph(10));
  EXPECT_GT(g.bytes(), 0u);
  EXPECT_GE(g.bytes(), g.num_edges() * sizeof(vid_t));
}

TEST(Csr, ParallelEdgesPreserved) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 1, 1.0f}, Edge{0, 1, 1.0f}};
  const auto g = CSRGraph::from_edges(el);
  EXPECT_EQ(g.degree(0), 2u);
}

/// The equivalence inputs, one per row path: raw Kronecker order (rows
/// need sorting), (src, dst)-sorted input read back from a .sg file
/// (every row already sorted, so none is sorted again), and a shuffled
/// input whose duplicate (src, dst) pairs carry different weights. Made
/// on one thread: under TSan (the test carries the "frontier" label)
/// only the builder's own regions should run a team.
std::vector<EdgeList> build_equivalence_inputs() {
  ThreadScope one_thread(1);
  gen::KroneckerParams p;
  p.scale = 9;
  p.edgefactor = 8;
  const auto base = gen::kronecker(p);
  const auto weighted = with_random_weights(base, 1, 15);

  const auto sg = std::filesystem::temp_directory_path() /
                  ("epgs_csr_build_" + std::to_string(::getpid()) + ".sg");
  write_gap_sg(sg, dedupe(weighted));
  auto sorted = read_gap_sg(sg);
  std::filesystem::remove(sg);

  EdgeList dupes = weighted;
  for (std::size_t i = 0; i < weighted.edges.size(); i += 3) {
    Edge e = weighted.edges[i];
    e.w += 100.0f;
    dupes.edges.push_back(e);
  }
  std::mt19937 rng(7);
  std::shuffle(dupes.edges.begin(), dupes.edges.end(), rng);
  return {base, weighted, std::move(sorted), std::move(dupes)};
}

TEST(Csr, ParallelBuildMatchesSerialBuild) {
  // The one parallel builder must equal the seed's sequential build byte
  // for byte at every thread count: same offsets, same sorted targets,
  // weights permuted identically.
  const auto inputs = build_equivalence_inputs();
  const auto& sorted = inputs[2].edges;
  ASSERT_TRUE(std::is_sorted(sorted.begin(), sorted.end(),
                             [](const Edge& a, const Edge& b) {
                               return a.src != b.src ? a.src < b.src
                                                     : a.dst < b.dst;
                             }));
  for (const int threads : {1, 2, 3, 8}) {
    ThreadScope scope(threads);
    for (const EdgeList& el : inputs) {
      for (const bool transpose : {false, true}) {
        const auto par = CSRGraph::from_edges(el, transpose);
        const auto ser = CSRGraph::from_edges_serial(el, transpose);
        EXPECT_EQ(par.offsets(), ser.offsets()) << threads << transpose;
        EXPECT_EQ(par.targets(), ser.targets()) << threads << transpose;
        EXPECT_EQ(par.weights(), ser.weights()) << threads << transpose;
      }
    }
  }
}

TEST(Csr, SerialBuildRejectsOutOfRange) {
  EdgeList el;
  el.num_vertices = 2;
  el.edges = {Edge{0, 5, 1.0f}};
  EXPECT_THROW(CSRGraph::from_edges_serial(el), EpgsError);
}

}  // namespace
}  // namespace epgs
