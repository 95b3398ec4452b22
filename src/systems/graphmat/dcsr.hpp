// Doubly-compressed sparse row matrix (GraphMat's storage).
//
// GraphMat "reduces computation to sparse matrix operations" and stores
// the adjacency matrix doubly compressed: only rows with at least one
// nonzero are materialised (row-id array + offsets), which saves space on
// hypersparse partitions but means every matrix-vector step walks the
// whole compressed structure — the overhead the paper sees on small/sparse
// inputs ("the overhead of the sparse matrix operations ... may pay off
// for larger datasets").
#pragma once

#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace epgs::systems::graphmat_detail {

class DCSR {
 public:
  DCSR() = default;

  /// Build from an edge list. With transpose=false, row u holds the
  /// column indices of u's out-edges; with transpose=true, row v holds
  /// v's in-neighbors (the orientation SpMV-style message gathering
  /// needs). Rows are sorted; empty rows are not stored.
  static DCSR from_edges(const EdgeList& el, bool transpose);

  [[nodiscard]] vid_t num_vertices() const { return n_; }
  [[nodiscard]] eid_t num_nonzeros() const { return nnz_; }
  [[nodiscard]] std::size_t num_rows() const { return row_ids_.size(); }

  /// Dense vertex id of compressed row r.
  [[nodiscard]] vid_t row_id(std::size_t r) const { return row_ids_[r]; }

  [[nodiscard]] std::span<const vid_t> row_cols(std::size_t r) const {
    return {cols_.data() + row_offsets_[r],
            static_cast<std::size_t>(row_offsets_[r + 1] - row_offsets_[r])};
  }
  [[nodiscard]] std::span<const weight_t> row_vals(std::size_t r) const {
    return {vals_.data() + row_offsets_[r],
            static_cast<std::size_t>(row_offsets_[r + 1] - row_offsets_[r])};
  }
  [[nodiscard]] bool weighted() const { return !vals_.empty(); }

  /// Compressed row index of dense vertex v, or npos if v's row is empty.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t find_row(vid_t v) const;

  [[nodiscard]] std::size_t bytes() const;

 private:
  vid_t n_ = 0;
  eid_t nnz_ = 0;
  std::vector<vid_t> row_ids_;      // sorted dense ids of nonempty rows
  std::vector<eid_t> row_offsets_;  // size row_ids_.size() + 1
  CSRGraph::TargetVector cols_;
  CSRGraph::WeightVector vals_;     // empty when unweighted
};

}  // namespace epgs::systems::graphmat_detail
