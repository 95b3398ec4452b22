#include "graph/csr.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/parallel.hpp"

namespace epgs {

namespace {

/// State the build's threads share. One parallel region runs every
/// phase; the OmpHbEdge members re-declare its barriers to TSan (see
/// core/parallel.hpp). Everything is allocated here, before the region,
/// for the largest team it can get; no page is touched until the owning
/// thread zeroes its own counts.
struct BuildShared {
  BuildShared(const EdgeList& edges, bool transposed, CSRGraph::Rows& out)
      : el(edges),
        transpose(transposed),
        rows(out),
        cursors(static_cast<std::size_t>(omp_get_max_threads())),
        chunk_edges(cursors.size() + 1, 0) {
    for (auto& c : cursors) c.resize(edges.num_vertices);
  }

  const EdgeList& el;
  bool transpose;
  CSRGraph::Rows& rows;
  /// cursors[t][v]: thread t's count of row v, then its write offset.
  std::vector<FirstTouchVector<eid_t>> cursors;
  /// Edges per chunk of rows, then the chunk's first offset.
  std::vector<eid_t> chunk_edges;
  std::atomic<bool> bad_endpoint{false};
  OmpHbEdge fork, counted, degrees, scanned, placed, scattered, join;
};

/// [lo, hi) of `total` items for thread t of nt: contiguous slices.
std::pair<std::size_t, std::size_t> slice(std::size_t total, int t, int nt) {
  const std::size_t chunk = (total + static_cast<std::size_t>(nt) - 1) /
                            static_cast<std::size_t>(nt);
  const std::size_t lo = std::min(total, chunk * static_cast<std::size_t>(t));
  return {lo, std::min(total, lo + chunk)};
}

/// Sort row [lo, hi) by (target, weight) unless its targets already
/// increase strictly, which is the case for every row of (src,
/// dst)-sorted duplicate-free input. std::sort on the same row order as
/// the serial oracle keeps the result byte-identical to it.
void sort_row_if_needed(CSRGraph::Rows& rows, eid_t lo, eid_t hi,
                        std::vector<std::pair<vid_t, weight_t>>& scratch) {
  auto* t = rows.targets.data();
  eid_t i = lo + 1;
  while (i < hi && t[i - 1] < t[i]) ++i;
  if (i >= hi) return;
  if (rows.weights.empty()) {
    std::sort(t + lo, t + hi);
    return;
  }
  auto* w = rows.weights.data();
  scratch.clear();
  for (eid_t k = lo; k < hi; ++k) scratch.emplace_back(t[k], w[k]);
  std::sort(scratch.begin(), scratch.end());
  for (eid_t k = lo; k < hi; ++k) {
    t[k] = scratch[k - lo].first;
    w[k] = scratch[k - lo].second;
  }
}

/// Per-thread body of build_rows (orphaned single/for/barrier directives
/// binding to the wrapper's region).
EPGS_TSAN_NOINLINE void build_body(BuildShared& s) {
  s.fork.acquire();
  const int nt = omp_get_num_threads();
  const int t = omp_get_thread_num();
  const auto& edges = s.el.edges;
  const bool transpose = s.transpose;
  const bool weighted = s.el.weighted;
  const vid_t n = s.el.num_vertices;
  auto& rows = s.rows;
  const auto team = std::span(s.cursors).first(static_cast<std::size_t>(nt));

  // (1) Count this thread's edge slice into its own array.
  auto& mine = team[static_cast<std::size_t>(t)];
  std::fill(mine.begin(), mine.end(), eid_t{0});
  const auto [elo, ehi] = slice(edges.size(), t, nt);
  bool bad = false;
  for (std::size_t i = elo; i < ehi; ++i) {
    const auto& e = edges[i];
    if (e.src >= n || e.dst >= n) {
      bad = true;
      continue;
    }
    ++mine[transpose ? e.dst : e.src];
  }
  if (bad) s.bad_endpoint.store(true, std::memory_order_relaxed);
  s.counted.release();
#pragma omp barrier
  s.counted.acquire();
  if (s.bad_endpoint.load(std::memory_order_relaxed)) {
    s.join.release();
    return;  // every thread leaves here; the wrapper throws
  }

  // (2) Scan over (row, thread): within each row, thread t' starts after
  // the edges of threads < t'. Rows are split into nt contiguous chunks;
  // offsets[v] holds v's degree until the chunk's base is known.
  const auto [vlo, vhi] = slice(n, t, nt);
  eid_t chunk_total = 0;
  for (std::size_t v = vlo; v < vhi; ++v) {
    eid_t degree = 0;
    for (auto& c : team) {
      const eid_t count = c[v];
      c[v] = degree;
      degree += count;
    }
    rows.offsets[v] = degree;
    chunk_total += degree;
  }
  s.chunk_edges[static_cast<std::size_t>(t) + 1] = chunk_total;
  s.degrees.release();
#pragma omp barrier
  s.degrees.acquire();
#pragma omp single
  {
    for (int k = 1; k <= nt; ++k) {
      s.chunk_edges[static_cast<std::size_t>(k)] +=
          s.chunk_edges[static_cast<std::size_t>(k) - 1];
    }
    rows.offsets[n] = s.chunk_edges[static_cast<std::size_t>(nt)];
    s.scanned.release();
  }
  s.scanned.acquire();  // implicit barrier at end of single
  eid_t base = s.chunk_edges[static_cast<std::size_t>(t)];
  for (std::size_t v = vlo; v < vhi; ++v) {
    const eid_t degree = rows.offsets[v];
    rows.offsets[v] = base;
    for (auto& c : team) c[v] += base;
    base += degree;
  }

  // (3) First-touch placement: resize() touched no pages, and the
  // scatter below writes in edge order. Touch the flat adjacency arrays
  // in static index order, so each page lands on the thread that owns
  // that index range in later schedule(static) scans (see
  // core/numa_alloc.hpp for the rule).
  const auto m = static_cast<std::int64_t>(edges.size());
#pragma omp for schedule(static)
  for (std::int64_t i = 0; i < m; ++i) {
    rows.targets[static_cast<std::size_t>(i)] = 0;
    if (weighted) rows.weights[static_cast<std::size_t>(i)] = 0.0f;
  }
  s.placed.release();
#pragma omp barrier
  s.placed.acquire();

  // (4) Stable scatter: thread t owns the next slots of every row for
  // its slice, so each row ends up in edge order, as in the serial build.
  for (std::size_t i = elo; i < ehi; ++i) {
    const auto& e = edges[i];
    const vid_t row = transpose ? e.dst : e.src;
    const eid_t pos = mine[row]++;
    rows.targets[pos] = transpose ? e.src : e.dst;
    if (weighted) rows.weights[pos] = e.w;
  }
  s.scattered.release();
#pragma omp barrier
  s.scattered.acquire();

  // (5) Sort the rows that need it. Dynamic chunks of 256 rows ride out
  // the power-law row-length skew.
  std::vector<std::pair<vid_t, weight_t>> scratch;
#pragma omp for schedule(dynamic, 256) nowait
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    sort_row_if_needed(rows, rows.offsets[static_cast<std::size_t>(v)],
                       rows.offsets[static_cast<std::size_t>(v) + 1],
                       scratch);
  }
  s.join.release();
}

}  // namespace

EPGS_NO_SANITIZE_THREAD CSRGraph::Rows CSRGraph::build_rows(
    const EdgeList& el, bool transpose) {
  Rows rows;
  rows.offsets.resize(static_cast<std::size_t>(el.num_vertices) + 1);
  rows.targets.resize(el.edges.size());
  if (el.weighted) rows.weights.resize(el.edges.size());
  BuildShared shared(el, transpose, rows);
  shared.fork.release();
#pragma omp parallel
  build_body(shared);
  shared.join.acquire();
  EPGS_CHECK(!shared.bad_endpoint.load(std::memory_order_relaxed),
             "edge endpoint out of range");
  return rows;
}

CSRGraph CSRGraph::from_edges(const EdgeList& el, bool transpose) {
  Rows rows = build_rows(el, transpose);
  CSRGraph g;
  g.n_ = el.num_vertices;
  g.m_ = el.num_edges();
  g.offsets_ = std::move(rows.offsets);
  g.targets_ = std::move(rows.targets);
  g.weights_ = std::move(rows.weights);
  return g;
}

// The seed's sequential Kernel 1, kept verbatim as the equivalence
// oracle for tests and the baseline side of the CSR-build
// microbenchmark.
CSRGraph CSRGraph::from_edges_serial(const EdgeList& el, bool transpose) {
  CSRGraph g;
  g.n_ = el.num_vertices;
  g.m_ = el.num_edges();

  std::vector<eid_t> counts(g.n_, 0);
  for (const auto& e : el.edges) {
    EPGS_CHECK(e.src < g.n_ && e.dst < g.n_, "edge endpoint out of range");
    ++counts[transpose ? e.dst : e.src];
  }
  exclusive_prefix_sum(counts, g.offsets_);

  g.targets_.resize(g.m_);
  if (el.weighted) g.weights_.resize(g.m_);
  std::vector<eid_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& e : el.edges) {
    const vid_t row = transpose ? e.dst : e.src;
    const vid_t col = transpose ? e.src : e.dst;
    const eid_t pos = cursor[row]++;
    g.targets_[pos] = col;
    if (el.weighted) g.weights_[pos] = e.w;
  }

  if (el.weighted) {
    std::vector<std::pair<vid_t, weight_t>> row;
    for (vid_t u = 0; u < g.n_; ++u) {
      const eid_t lo = g.offsets_[u], hi = g.offsets_[u + 1];
      row.clear();
      row.reserve(hi - lo);
      for (eid_t i = lo; i < hi; ++i) {
        row.emplace_back(g.targets_[i], g.weights_[i]);
      }
      std::sort(row.begin(), row.end());
      for (eid_t i = lo; i < hi; ++i) {
        g.targets_[i] = row[i - lo].first;
        g.weights_[i] = row[i - lo].second;
      }
    }
  } else {
    for (vid_t u = 0; u < g.n_; ++u) {
      std::sort(g.targets_.begin() + static_cast<std::ptrdiff_t>(g.offsets_[u]),
                g.targets_.begin() +
                    static_cast<std::ptrdiff_t>(g.offsets_[u + 1]));
    }
  }
  return g;
}

std::size_t CSRGraph::bytes() const {
  return offsets_.size() * sizeof(eid_t) + targets_.size() * sizeof(vid_t) +
         weights_.size() * sizeof(weight_t);
}

bool CSRGraph::has_edge(vid_t u, vid_t v) const {
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

}  // namespace epgs
