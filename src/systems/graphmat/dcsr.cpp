#include "systems/graphmat/dcsr.hpp"

#include <algorithm>
#include <utility>

namespace epgs::systems::graphmat_detail {

// The shared CSR row build (graph/csr.cpp), compressed to the
// non-empty rows. The column and value arrays move over as built.
DCSR DCSR::from_edges(const EdgeList& el, bool transpose) {
  CSRGraph::Rows rows = CSRGraph::build_rows(el, transpose);
  DCSR m;
  m.n_ = el.num_vertices;
  m.nnz_ = el.num_edges();
  m.row_offsets_.push_back(0);
  for (vid_t v = 0; v < m.n_; ++v) {
    if (rows.offsets[v + 1] != rows.offsets[v]) {
      m.row_ids_.push_back(v);
      m.row_offsets_.push_back(rows.offsets[v + 1]);
    }
  }
  m.cols_ = std::move(rows.targets);
  m.vals_ = std::move(rows.weights);
  return m;
}

std::size_t DCSR::find_row(vid_t v) const {
  const auto it = std::lower_bound(row_ids_.begin(), row_ids_.end(), v);
  if (it == row_ids_.end() || *it != v) return npos;
  return static_cast<std::size_t>(it - row_ids_.begin());
}

std::size_t DCSR::bytes() const {
  return row_ids_.size() * sizeof(vid_t) +
         row_offsets_.size() * sizeof(eid_t) + cols_.size() * sizeof(vid_t) +
         vals_.size() * sizeof(weight_t);
}

}  // namespace epgs::systems::graphmat_detail
