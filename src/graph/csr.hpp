// Compressed sparse row graph.
//
// The paper notes that "most software packages represent graphs using CSR
// format" even though "the implementation details differ across packages".
// This is the *shared* CSR used by the framework's validators and by the
// GAP / Graph500 re-implementations; GraphMat layers DCSR on top of the
// same build path and GraphBIG/PowerGraph use their own stores.
#pragma once

#include <span>
#include <vector>

#include "core/numa_alloc.hpp"
#include "graph/edge_list.hpp"

namespace epgs {

class CSRGraph {
 public:
  // The flat adjacency arrays use the first-touch vector (resize leaves
  // pages untouched; the parallel build's static passes place them) so
  // traversal kernels scanning with schedule(static) hit local pages.
  using OffsetVector = FirstTouchVector<eid_t>;
  using TargetVector = FirstTouchVector<vid_t>;
  using WeightVector = FirstTouchVector<weight_t>;

  CSRGraph() = default;

  /// The adjacency arrays of one build, before a CSRGraph owns them.
  /// GraphMat's DCSR takes these and drops the empty rows.
  struct Rows {
    OffsetVector offsets;  // size n+1
    TargetVector targets;  // size m
    WeightVector weights;  // size m when weighted, else empty
  };

  /// The one parallel row builder behind from_edges and DCSR. Each
  /// thread counts its contiguous edge slice, an exclusive scan over
  /// (row, thread) gives every thread its own write offset in every row,
  /// and the scatter then needs no atomics and keeps each row in edge
  /// order. A row is sorted only if its targets are not strictly
  /// increasing, so (src, dst)-sorted input costs one linear check.
  /// The output equals from_edges_serial byte for byte at any thread
  /// count. With `transpose`, row u lists the sources of u's in-edges.
  static Rows build_rows(const EdgeList& el, bool transpose);

  /// Build an out-neighborhood CSR from an edge list (Kernel 1). If
  /// `transpose` is true, builds the in-neighborhood (CSC of the
  /// original): row u lists vertices with an edge into u.
  /// Adjacency of every row is sorted by target id.
  static CSRGraph from_edges(const EdgeList& el, bool transpose = false);

  /// The seed's sequential build, kept as the equivalence oracle for
  /// tests and the baseline for the CSR-build microbenchmark.
  static CSRGraph from_edges_serial(const EdgeList& el,
                                    bool transpose = false);

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] eid_t num_edges() const { return m_; }
  [[nodiscard]] bool weighted() const { return !weights_.empty(); }

  [[nodiscard]] eid_t degree(vid_t u) const {
    return offsets_[u + 1] - offsets_[u];
  }

  [[nodiscard]] std::span<const vid_t> neighbors(vid_t u) const {
    return {targets_.data() + offsets_[u],
            static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] std::span<const weight_t> edge_weights(vid_t u) const {
    return {weights_.data() + offsets_[u],
            static_cast<std::size_t>(degree(u))};
  }

  [[nodiscard]] const OffsetVector& offsets() const { return offsets_; }
  [[nodiscard]] const TargetVector& targets() const { return targets_; }
  [[nodiscard]] const WeightVector& weights() const { return weights_; }

  /// Estimated resident size in bytes (for log/power accounting).
  [[nodiscard]] std::size_t bytes() const;

  /// True iff (u, v) is an edge; binary search over sorted adjacency.
  [[nodiscard]] bool has_edge(vid_t u, vid_t v) const;

 private:
  vid_t n_ = 0;
  eid_t m_ = 0;
  OffsetVector offsets_;   // size n+1
  TargetVector targets_;   // size m
  WeightVector weights_;   // size m when weighted, else empty
};

}  // namespace epgs
