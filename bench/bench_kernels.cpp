// Kernel-level microbenchmarks and ablations (google-benchmark).
//
// These back the design discussion in DESIGN.md rather than a specific
// paper table: direction-optimizing vs pure top-down BFS (why GAP beats
// Graph500), delta-stepping bucket width, the vertex-cut partitioner's
// cost/quality, DCSR construction, and the harness's parsing layers.
#include <benchmark/benchmark.h>

#include <numeric>
#include <sstream>

#include "core/cancellation.hpp"
#include "core/frontier.hpp"
#include "core/parallel.hpp"
#include "core/phase_log.hpp"
#include "systems/common/kernel_run.hpp"
#include "gen/kronecker.hpp"
#include "graph/csr.hpp"
#include "graph/snap_io.hpp"
#include "graph/transforms.hpp"
#include "harness/experiment.hpp"
#include "systems/gap/gap_system.hpp"
#include "systems/graph500/graph500_system.hpp"
#include "systems/graphbig/graphbig_system.hpp"
#include "systems/graphbig/property_graph.hpp"
#include "systems/graphmat/dcsr.hpp"
#include "systems/graphmat/graphmat_system.hpp"
#include "systems/ligra/ligra_primitives.hpp"
#include "systems/powergraph/vertex_cut.hpp"

namespace {

using namespace epgs;
using epgs::systems::ligra_detail::edge_map;

EdgeList bench_graph(int scale) {
  gen::KroneckerParams p;
  p.scale = scale;
  p.edgefactor = 8;
  return dedupe(symmetrize(gen::kronecker(p)));
}

/// A traversal root by the harness's rule (degree > 1, as in the
/// Graph500), from a fixed seed, so every traversal bench does real work.
vid_t bench_root(const EdgeList& el) {
  return harness::select_roots(el, 1, /*seed=*/20170517).front();
}

/// Time `kernel` from `root` on a built system and report the edges it
/// traversed (its WorkStats) as items, so a row that does no work shows
/// 0 items/s. The phase log is cleared each time so it does not grow.
template <typename Result>
void run_traversal(benchmark::State& state, System& sys,
                   Result (System::*kernel)(vid_t), vid_t root) {
  std::int64_t edges = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize((sys.*kernel)(root));
    edges += static_cast<std::int64_t>(
        sys.log().entries().back().work.edges_processed);
    sys.log().clear();
  }
  state.SetItemsProcessed(edges);
}

void BM_KroneckerGenerate(benchmark::State& state) {
  gen::KroneckerParams p;
  p.scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen::kronecker(p));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(p.edgefactor)
                              << p.scale);
}
BENCHMARK(BM_KroneckerGenerate)->Arg(10)->Arg(12)->Arg(14);

// Kernel 1 old vs new: the seed's sequential CSR build against the
// parallel per-thread-offset stable scatter, at a given thread count
// (second arg). The input is dedupe's (src, dst)-sorted list, as every
// native reader delivers it, so the new build sorts no row.
void BM_CsrBuildSerial(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CSRGraph::from_edges_serial(el));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_CsrBuildSerial)->Arg(10)->Arg(12);

void BM_CsrBuild(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(CSRGraph::from_edges(el));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_CsrBuild)
    ->Args({10, 8})
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4})
    ->Args({12, 8});

// Frontier merge old vs new, isolated from traversal work: every thread
// produces a slice of `range(0)` vertex ids and the variants differ only
// in how per-thread output reaches the shared next-frontier — the seed's
// `#pragma omp critical` concatenation vs LocalBuffer flushes into a
// SlidingQueue (one fetch-add per 1024-element flush).
void BM_FrontierMergeCritical(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    std::vector<vid_t> next;
#pragma omp parallel
    {
      std::vector<vid_t> local;
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
        local.push_back(static_cast<vid_t>(i));
      }
#pragma omp critical
      next.insert(next.end(), local.begin(), local.end());
    }
    benchmark::DoNotOptimize(next);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FrontierMergeCritical)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 8});

void BM_FrontierMergeSlidingQueue(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    SlidingQueue<vid_t> queue(n);
#pragma omp parallel
    {
      LocalBuffer<vid_t> local(queue);
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(n); ++i) {
        local.push_back(static_cast<vid_t>(i));
      }
    }
    queue.slide_window();
    benchmark::DoNotOptimize(queue);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FrontierMergeSlidingQueue)
    ->Args({1 << 20, 1})
    ->Args({1 << 20, 8});

// Exclusive prefix sum old vs new over a degree-array-sized input.
void BM_PrefixSumSerial(benchmark::State& state) {
  std::vector<eid_t> in(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<eid_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(exclusive_prefix_sum(in, out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_PrefixSumSerial)->Arg(1 << 22);

void BM_PrefixSumParallel(benchmark::State& state) {
  std::vector<eid_t> in(static_cast<std::size_t>(state.range(0)), 3);
  std::vector<eid_t> out;
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(parallel_exclusive_prefix_sum(in, out));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.size()));
}
BENCHMARK(BM_PrefixSumParallel)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 8});

// Bitmap -> queue compaction (the bottom-up -> top-down switch in GAP's
// BFS and the GAS engine's active-set extraction): serial scan vs the
// popcount/prefix-sum pack.
void BM_BitmapCompactSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bm(n);
  for (std::size_t i = 0; i < n; i += 3) bm.set(i);
  for (auto _ : state) {
    std::vector<vid_t> out;
    for (std::size_t v = 0; v < n; ++v) {
      if (bm.test(v)) out.push_back(static_cast<vid_t>(v));
    }
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitmapCompactSerial)->Arg(1 << 22);

void BM_BitmapCompactParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bm(n);
  for (std::size_t i = 0; i < n; i += 3) bm.set(i);
  ThreadScope threads(static_cast<int>(state.range(1)));
  for (auto _ : state) {
    SlidingQueue<vid_t> queue(bm.count());
    bitmap_to_queue(bm, queue);
    queue.slide_window();
    benchmark::DoNotOptimize(queue);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitmapCompactParallel)
    ->Args({1 << 22, 1})
    ->Args({1 << 22, 8});

void BM_DcsrBuild(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        systems::graphmat_detail::DCSR::from_edges(el, true));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_DcsrBuild)->Arg(10)->Arg(12);

// Ablation: GAP's direction-optimizing BFS vs. the same code forced into
// pure top-down (alpha = infinity disables the bottom-up switch).
void BM_BfsDirectionOptimizing(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  systems::GapSystem sys;
  sys.set_edges(el);
  sys.build();
  run_traversal(state, sys, &System::bfs, bench_root(el));
}
BENCHMARK(BM_BfsDirectionOptimizing)->Arg(12)->Arg(14);

void BM_BfsTopDownOnly(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.alpha = 1e18;  // never switch bottom-up
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  systems::GapSystem sys(opts);
  sys.set_edges(el);
  sys.build();
  ThreadScope threads(static_cast<int>(state.range(1)));
  run_traversal(state, sys, &System::bfs, bench_root(el));
}
// Thread sweep: pure top-down BFS is all frontier expansion + merge, so
// this curve is the end-to-end view of the sliding-queue migration.
BENCHMARK(BM_BfsTopDownOnly)
    ->Args({12, 1})
    ->Args({12, 2})
    ->Args({12, 4})
    ->Args({12, 8})
    ->Args({14, 8});

void BM_BfsGraph500(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  systems::Graph500System sys;
  sys.set_edges(el);
  sys.build();
  run_traversal(state, sys, &System::bfs, bench_root(el));
}
BENCHMARK(BM_BfsGraph500)->Arg(12)->Arg(14);

// Ablation: delta-stepping bucket width on a weighted Kronecker graph.
void BM_SsspDelta(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.delta = static_cast<weight_t>(state.range(1));
  const auto el = with_random_weights(
      bench_graph(static_cast<int>(state.range(0))), 5, 255);
  systems::GapSystem sys(opts);
  sys.set_edges(el);
  sys.build();
  run_traversal(state, sys, &System::sssp, bench_root(el));
}
BENCHMARK(BM_SsspDelta)
    ->Args({12, 1})
    ->Args({12, 8})
    ->Args({12, 64})
    ->Args({12, 512});

// Ablation: greedy vertex-cut quality/cost across partition counts.
void BM_VertexCutPartition(benchmark::State& state) {
  const auto el = bench_graph(12);
  const int parts = static_cast<int>(state.range(0));
  double rf = 0.0;
  for (auto _ : state) {
    const auto vc =
        systems::powergraph_detail::VertexCut::build(el, parts);
    rf = vc.replication_factor();
    benchmark::DoNotOptimize(vc);
  }
  state.counters["replication_factor"] = rf;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(el.num_edges()));
}
BENCHMARK(BM_VertexCutPartition)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

// Ablation: GraphBIG's virtual dispatch per edge vs a direct loop over
// the same property store — quantifies the "generic visitor" tax that
// contributes to GraphBIG's two-orders-of-magnitude BFS gap in the paper.
void BM_GraphBigVisitorDispatch(benchmark::State& state) {
  systems::graphbig_detail::PropertyGraph g;
  g.load(bench_graph(static_cast<int>(state.range(0))));

  struct NopVisitor final : systems::graphbig_detail::EdgeVisitor {
    std::uint64_t sum = 0;
    bool examine(systems::graphbig_detail::VertexObj&,
                 systems::graphbig_detail::EdgeObj& e,
                 systems::graphbig_detail::VertexObj&) override {
      sum += e.target;
      return false;
    }
  } visitor;

  for (auto _ : state) {
    benchmark::DoNotOptimize(g.for_each_edge(visitor));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_GraphBigVisitorDispatch)->Arg(12);

void BM_GraphBigDirectLoop(benchmark::State& state) {
  systems::graphbig_detail::PropertyGraph g;
  g.load(bench_graph(static_cast<int>(state.range(0))));
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (vid_t v = 0; v < g.num_vertices(); ++v) {
      for (const auto& e : g.vertex(v).out_edges) sum += e.target;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_GraphBigDirectLoop)->Arg(12);

// Ligra edgeMap: sparse push from a single vertex vs dense pull from a
// saturating frontier.
void BM_LigraEdgeMapDense(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  const auto out = CSRGraph::from_edges(el);
  const auto in = CSRGraph::from_edges(el, true);

  struct NopF {
    bool cond(vid_t) const { return true; }
    bool update(vid_t, vid_t, weight_t) const { return false; }
    bool update_atomic(vid_t, vid_t, weight_t) const { return false; }
  };
  const auto frontier =
      systems::ligra_detail::VertexSubset::all(out.num_vertices());
  for (auto _ : state) {
    std::uint64_t examined = 0;
    benchmark::DoNotOptimize(
        edge_map(out, in, frontier, NopF{}, examined));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(out.num_edges()));
}
BENCHMARK(BM_LigraEdgeMapDense)->Arg(12);

// ---------------------------------------------------------------------
// PageRank before/after the memory-locality overhaul. Every pair runs
// from one binary so the comparison holds the toolchain, graph, and
// thread count fixed: the "legacy" side is the pre-overhaul kernel kept
// verbatim behind Options::pr_mode, the other sides are the
// contribution-precomputing pull kernel and the propagation-blocked
// push kernel. Fixed iteration count (epsilon = 0 never converges
// early) so both sides do identical algorithmic work.
// ---------------------------------------------------------------------

PageRankParams bench_pr_params() {
  PageRankParams p;
  p.epsilon = 0.0;  // fixed work: always run max_iterations
  p.max_iterations = 20;
  return p;
}

template <typename System, typename Options>
void run_pagerank_bench(benchmark::State& state, const Options& opts) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  ThreadScope threads(static_cast<int>(state.range(1)));
  System sys(opts);
  sys.set_edges(el);
  sys.build();
  const PageRankParams params = bench_pr_params();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys.pagerank(params));
  }
  state.SetItemsProcessed(state.iterations() * params.max_iterations *
                          static_cast<std::int64_t>(el.num_edges()));
}

void BM_PageRankGapLegacy(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.pr_mode = systems::GapSystem::PrMode::kLegacy;
  run_pagerank_bench<systems::GapSystem>(state, opts);
}
BENCHMARK(BM_PageRankGapLegacy)->Args({14, 1})->Args({14, 8});

void BM_PageRankGapPull(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.pr_mode = systems::GapSystem::PrMode::kPull;
  run_pagerank_bench<systems::GapSystem>(state, opts);
}
BENCHMARK(BM_PageRankGapPull)->Args({14, 1})->Args({14, 8});

void BM_PageRankGapBlocked(benchmark::State& state) {
  systems::GapSystem::Options opts;
  opts.pr_mode = systems::GapSystem::PrMode::kBlocked;
  run_pagerank_bench<systems::GapSystem>(state, opts);
}
BENCHMARK(BM_PageRankGapBlocked)->Args({14, 1})->Args({14, 8});

void BM_PageRankGraphMatPull(benchmark::State& state) {
  systems::GraphMatSystem::Options opts;
  opts.pr_mode = systems::GraphMatSystem::PrMode::kPull;
  run_pagerank_bench<systems::GraphMatSystem>(state, opts);
}
BENCHMARK(BM_PageRankGraphMatPull)->Args({14, 1})->Args({14, 8});

void BM_PageRankGraphMatBlocked(benchmark::State& state) {
  systems::GraphMatSystem::Options opts;
  opts.pr_mode = systems::GraphMatSystem::PrMode::kBlocked;
  run_pagerank_bench<systems::GraphMatSystem>(state, opts);
}
BENCHMARK(BM_PageRankGraphMatBlocked)->Args({14, 1})->Args({14, 8});

void BM_PageRankGraphBigLegacy(benchmark::State& state) {
  systems::GraphBigSystem::Options opts;
  opts.pr_mode = systems::GraphBigSystem::PrMode::kLegacy;
  run_pagerank_bench<systems::GraphBigSystem>(state, opts);
}
BENCHMARK(BM_PageRankGraphBigLegacy)->Args({14, 1})->Args({14, 8});

void BM_PageRankGraphBigBlocked(benchmark::State& state) {
  systems::GraphBigSystem::Options opts;
  opts.pr_mode = systems::GraphBigSystem::PrMode::kBlocked;
  run_pagerank_bench<systems::GraphBigSystem>(state, opts);
}
BENCHMARK(BM_PageRankGraphBigBlocked)->Args({14, 1})->Args({14, 8});

// Prefetch ablation on GAP's traversal kernels: same kernels, hints off.
void BM_GapBfsNoPrefetch(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  ThreadScope threads(static_cast<int>(state.range(1)));
  systems::GapSystem::Options opts;
  opts.prefetch = false;
  systems::GapSystem sys(opts);
  sys.set_edges(el);
  sys.build();
  run_traversal(state, sys, &System::bfs, bench_root(el));
}
BENCHMARK(BM_GapBfsNoPrefetch)->Args({14, 8});

void BM_GapBfsPrefetch(benchmark::State& state) {
  const auto el = bench_graph(static_cast<int>(state.range(0)));
  ThreadScope threads(static_cast<int>(state.range(1)));
  systems::GapSystem sys;
  sys.set_edges(el);
  sys.build();
  run_traversal(state, sys, &System::bfs, bench_root(el));
}
BENCHMARK(BM_GapBfsPrefetch)->Args({14, 8});

// ---------------------------------------------------------------------
// KernelRun scope A/B: the shared runtime's per-iteration-boundary cost
// (telemetry row close/open + checkpoint-cadence tick + cancellation
// poll) against the bare token poll the adapters used to hand-roll at
// the same boundary. Per-boundary cost = cpu_time / items_per_second
// denominator; the committed baseline makes growth in the scope's
// fixed overhead visible in the perf smoke.
// ---------------------------------------------------------------------

constexpr int kBoundaries = 1 << 12;

void BM_IterBoundaryHandRolled(benchmark::State& state) {
  CancellationToken token;
  const CancellationToken* cancel = &token;
  for (auto _ : state) {
    std::uint64_t edges = 0;
    for (int i = 0; i < kBoundaries; ++i) {
      cancel->checkpoint();  // the old per-iteration orchestration
      edges += 7;            // stand-in kernel work
      benchmark::DoNotOptimize(edges);
    }
  }
  state.SetItemsProcessed(state.iterations() * kBoundaries);
}
BENCHMARK(BM_IterBoundaryHandRolled);

void BM_IterBoundaryKernelRun(benchmark::State& state) {
  systems::GapSystem sys;
  sys.set_edges(bench_graph(6));
  sys.build();
  CancellationToken token;
  sys.set_cancellation(&token);
  for (auto _ : state) {
    std::uint64_t edges = 0;
    KernelRun run(sys, "bench");
    run.watch_edges(&edges);
    for (int i = 0; i < kBoundaries; ++i) {
      run.iteration(static_cast<std::uint64_t>(i), 0);
      edges += 7;
      benchmark::DoNotOptimize(edges);
    }
    run.finish();
  }
  state.SetItemsProcessed(state.iterations() * kBoundaries);
}
BENCHMARK(BM_IterBoundaryKernelRun);

void BM_SnapParse(benchmark::State& state) {
  std::ostringstream os;
  write_snap(os, bench_graph(10));
  const std::string text = os.str();
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_snap(text));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_SnapParse);

void BM_PhaseLogRoundTrip(benchmark::State& state) {
  PhaseLog log;
  for (int i = 0; i < 64; ++i) {
    log.add("run algorithm", 0.001 * i,
            WorkStats{.edges_processed = 1000u * i},
            {{"alg", "bfs"}, {"iterations", "3"}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhaseLog::parse_log_text(log.to_log_text()));
  }
}
BENCHMARK(BM_PhaseLogRoundTrip);

}  // namespace

BENCHMARK_MAIN();
