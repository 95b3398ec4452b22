// End-to-end tests for the warm-graph query service: an in-process
// Server on a temp-dir socket, driven by real protocol clients. The
// correctness bar for served results is byte-identity with a direct
// run_experiment of the same spec (after stripping the volatile timing/
// provenance columns — the same currency the chaos harness uses).
#include <gtest/gtest.h>

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli/commands.hpp"
#include "harness/records.hpp"
#include "harness/runner.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "systems/common/fault_injection.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

/// Unique temp dir per fixture, removed on teardown (test_cli.cpp idiom).
class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("epgs_serve_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] fs::path path() const { return dir_; }

 private:
  fs::path dir_;
};

serve::Request make_run_request(int scale, std::uint64_t seed,
                                const std::string& system,
                                harness::Algorithm alg, int roots = 1,
                                std::int64_t deadline_ms = 0) {
  serve::Request req;
  req.verb = serve::Verb::kRun;
  req.graph.kind = harness::GraphSpec::Kind::kKronecker;
  req.graph.scale = scale;
  req.graph.seed = seed;
  if (alg == harness::Algorithm::kSssp) req.graph.add_weights = true;
  req.system = system;
  req.algorithm = alg;
  req.roots = roots;
  req.threads = 1;
  req.deadline_ms = deadline_ms;
  return req;
}

/// The direct (no server) execution of the same request, as stripped CSV.
std::string direct_stripped_csv(const serve::Request& req) {
  harness::ExperimentConfig cfg;
  cfg.graph = req.graph;
  cfg.systems = {req.system};
  cfg.algorithms = {req.algorithm};
  cfg.num_roots = req.roots;
  cfg.threads = req.threads;
  const auto result = harness::run_experiment(cfg);
  return harness::records_to_stripped_csv(result.records);
}

/// Stripped CSV of an ok reply; empty (with the error noted by the
/// caller) otherwise. No gtest assertions here — this runs on client
/// threads.
std::string served_stripped_csv(const serve::Reply& reply) {
  if (reply.kind != serve::ReplyKind::kOk) return {};
  return harness::records_to_stripped_csv(
      harness::records_from_csv(reply.body));
}

/// Poll the stats endpoint until `pred(stats_body)` holds or ~5s elapse.
bool wait_for_stats(const std::string& socket,
                    const std::function<bool(const std::string&)>& pred) {
  for (int i = 0; i < 500; ++i) {
    const auto reply = serve::query_server(socket, "stats");
    if (reply.kind == serve::ReplyKind::kOk && pred(reply.body)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

std::uint64_t stat_value(const std::string& stats, const std::string& key) {
  std::istringstream in(stats);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + " ", 0) == 0) {
      return std::stoull(line.substr(key.size() + 1));
    }
  }
  return ~0ull;
}

TEST(ServeEndToEnd, RepliesByteIdenticalToDirectRun) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.socket_path = (tmp.path() / "epg.sock").string();
  serve::Server server(opts);

  const auto bfs = make_run_request(7, 11, "GAP", harness::Algorithm::kBfs,
                                    /*roots=*/2);
  const auto pr =
      make_run_request(7, 11, "Ligra", harness::Algorithm::kPageRank);

  const std::string want_bfs = direct_stripped_csv(bfs);
  const std::string want_pr = direct_stripped_csv(pr);
  ASSERT_NE(want_bfs, want_pr);

  // N concurrent clients, mixed queries: every reply must match its
  // direct-run control regardless of interleaving or coalescing.
  constexpr int kClients = 6;
  std::vector<serve::Reply> replies(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] {
      const auto& req = (i % 2 == 0) ? bfs : pr;
      replies[i] = serve::query_server(opts.socket_path,
                                       serve::render_request(req));
    });
  }
  for (auto& t : clients) t.join();
  for (int i = 0; i < kClients; ++i) {
    ASSERT_EQ(replies[i].kind, serve::ReplyKind::kOk)
        << "client " << i << ": " << replies[i].body;
    EXPECT_EQ(served_stripped_csv(replies[i]),
              (i % 2 == 0) ? want_bfs : want_pr)
        << "client " << i;
  }

  // Replays hit the warm graph — same bytes, no new cold load.
  const auto warm = serve::query_server(opts.socket_path,
                                        serve::render_request(bfs));
  ASSERT_EQ(warm.kind, serve::ReplyKind::kOk) << warm.body;
  EXPECT_EQ(served_stripped_csv(warm), want_bfs);
  const auto stats = serve::query_server(opts.socket_path, "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  EXPECT_EQ(stat_value(stats.body, "cold_loads"), 1u);  // one fingerprint
  EXPECT_GE(stat_value(stats.body, "warm_hits"), 1u);
  EXPECT_EQ(stat_value(stats.body, "errors"), 0u);
  EXPECT_EQ(stat_value(stats.body, "rejected_overload"), 0u);
}

TEST(ServeEndToEnd, StatsExposeLatencyQuantiles) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.socket_path = (tmp.path() / "epg.sock").string();
  serve::Server server(opts);

  const auto req = make_run_request(6, 5, "GAP", harness::Algorithm::kBfs);
  for (int i = 0; i < 3; ++i) {
    const auto reply = serve::query_server(opts.socket_path,
                                           serve::render_request(req));
    ASSERT_EQ(reply.kind, serve::ReplyKind::kOk) << reply.body;
  }
  const auto stats = serve::query_server(opts.socket_path, "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  EXPECT_EQ(stat_value(stats.body, "latency_count"), 3u);
  EXPECT_NE(stats.body.find("latency_p50_ms "), std::string::npos);
  EXPECT_NE(stats.body.find("latency_p95_ms "), std::string::npos);
  EXPECT_NE(stats.body.find("latency_p99_ms "), std::string::npos);
  const auto snap = server.snapshot();
  EXPECT_GE(snap.p99_seconds, snap.p50_seconds);
  EXPECT_GT(snap.max_seconds, 0.0);
}

TEST(ServeAdmission, QueueFullIsTypedRejection) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.socket_path = (tmp.path() / "epg.sock").string();
  opts.queue_depth = 1;
  serve::Server server(opts);

  // Wedge the worker: the first GAP kernel phase hangs until the
  // deadline-fed watchdog cancels it (~3s). Everything below happens
  // while that batch occupies the worker.
  fault::Scoped hang(fault::Plan{.system = "GAP",
                                 .kind = fault::Kind::kHang,
                                 .phase = "bfs"});
  const auto wedge = make_run_request(6, 21, "GAP", harness::Algorithm::kBfs,
                                      /*roots=*/1, /*deadline_ms=*/3000);
  serve::Reply wedge_reply;
  std::thread wedge_client([&] {
    wedge_reply = serve::query_server(opts.socket_path,
                                      serve::render_request(wedge));
  });
  // Wait until the wedge batch is actually *executing* (not queued):
  // add_batch fires at dequeue, so batches >= 1 means the queue is empty
  // again and its one slot is free.
  ASSERT_TRUE(wait_for_stats(opts.socket_path, [](const std::string& s) {
    return stat_value(s, "batches") >= 1;
  }));

  // Fill the single queue slot...
  const auto queued = make_run_request(6, 22, "GAP",
                                       harness::Algorithm::kPageRank);
  std::vector<serve::Reply> queued_replies(2);
  std::thread queued_client([&] {
    queued_replies[0] = serve::query_server(opts.socket_path,
                                            serve::render_request(queued));
  });
  // ...prove the slot is taken by watching an identical request coalesce
  // onto it (coalescing only targets batches sitting in the queue)...
  std::thread coalesced_client([&] {
    queued_replies[1] = serve::query_server(opts.socket_path,
                                            serve::render_request(queued));
  });
  ASSERT_TRUE(wait_for_stats(opts.socket_path, [](const std::string& s) {
    return stat_value(s, "coalesced") >= 1;
  }));

  // ...then a request for a *different* batch must be shed with a typed
  // overload reply, immediately (no queueing, no silent drop).
  const auto rejected = make_run_request(6, 23, "Ligra",
                                         harness::Algorithm::kBfs);
  const auto overload = serve::query_server(opts.socket_path,
                                            serve::render_request(rejected));
  EXPECT_EQ(overload.kind, serve::ReplyKind::kOverloaded) << overload.body;
  EXPECT_NE(overload.body.find("queue full"), std::string::npos);

  wedge_client.join();
  queued_client.join();
  coalesced_client.join();
  // The wedged run blew its deadline: typed deadline reply, not a hang.
  EXPECT_EQ(wedge_reply.kind, serve::ReplyKind::kDeadline)
      << wedge_reply.body;
  // The queued + coalesced clients were served normally afterwards.
  EXPECT_EQ(queued_replies[0].kind, serve::ReplyKind::kOk)
      << queued_replies[0].body;
  EXPECT_EQ(queued_replies[1].kind, serve::ReplyKind::kOk)
      << queued_replies[1].body;

  const auto stats = serve::query_server(opts.socket_path, "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  EXPECT_GE(stat_value(stats.body, "rejected_overload"), 1u);
  EXPECT_GE(stat_value(stats.body, "rejected_deadline"), 1u);
  // The server survived all of it and still answers.
  EXPECT_EQ(serve::query_server(opts.socket_path, "ping").kind,
            serve::ReplyKind::kOk);
}

TEST(ServeAdmission, ExpiredDeadlineInQueueGetsTypedReplyWithoutExecution) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.socket_path = (tmp.path() / "epg.sock").string();
  serve::Server server(opts);

  fault::Scoped hang(fault::Plan{.system = "GAP",
                                 .kind = fault::Kind::kHang,
                                 .phase = "bfs"});
  const auto wedge = make_run_request(6, 31, "GAP", harness::Algorithm::kBfs,
                                      /*roots=*/1, /*deadline_ms=*/1000);
  serve::Reply wedge_reply;
  std::thread wedge_client([&] {
    wedge_reply = serve::query_server(opts.socket_path,
                                      serve::render_request(wedge));
  });
  ASSERT_TRUE(wait_for_stats(opts.socket_path, [](const std::string& s) {
    return stat_value(s, "batches") >= 1;
  }));

  // 50ms budget against ~1s of queue wait: must come back as a typed
  // deadline reply once dequeued — never executed, never a hang.
  const auto hopeless = make_run_request(6, 32, "Ligra",
                                         harness::Algorithm::kPageRank,
                                         /*roots=*/1, /*deadline_ms=*/50);
  const auto reply = serve::query_server(opts.socket_path,
                                         serve::render_request(hopeless));
  EXPECT_EQ(reply.kind, serve::ReplyKind::kDeadline) << reply.body;
  wedge_client.join();
  EXPECT_EQ(wedge_reply.kind, serve::ReplyKind::kDeadline)
      << wedge_reply.body;

  const auto stats = serve::query_server(opts.socket_path, "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  EXPECT_GE(stat_value(stats.body, "rejected_deadline"), 2u);
  // The hopeless batch was answered from the queue: only the wedge's
  // graph (and nothing for the Ligra spec) was ever loaded.
  EXPECT_EQ(stat_value(stats.body, "cold_loads"), 1u);
}

/// Threads this process has right now.
std::size_t live_threads() {
  return static_cast<std::size_t>(
      std::distance(fs::directory_iterator("/proc/self/task"),
                    fs::directory_iterator{}));
}

/// This process's virtual size in KiB. An exited but unjoined thread
/// keeps its stack mapped, so this is where a missing join shows.
std::uint64_t vm_size_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

TEST(ServeConnections, ExitedConnectionThreadsAreJoined) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.socket_path = (tmp.path() / "epg.sock").string();
  serve::Server server(opts);
  ASSERT_EQ(serve::query_server(opts.socket_path, "ping").kind,
            serve::ReplyKind::kOk);
  const std::size_t threads_before = live_threads();
  const std::uint64_t vm_before = vm_size_kb();

  constexpr int kConnections = 200;
  for (int i = 0; i < kConnections; ++i) {
    ASSERT_EQ(serve::query_server(opts.socket_path, "ping").kind,
              serve::ReplyKind::kOk);
  }

  // The last few connection threads may still be on their way out.
  EXPECT_LE(live_threads(), threads_before + 2);
  // 200 unjoined threads would keep 200 stacks mapped; joined ones leave
  // at most glibc's small stack cache behind.
  pthread_attr_t attr;
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const std::uint64_t vm_after = vm_size_kb();
  EXPECT_LT(vm_after, vm_before + (kConnections / 2) * (stack_bytes / 1024))
      << "VmSize grew from " << vm_before << " to " << vm_after << " kB";
}

TEST(ServeResidency, SecondGraphEvictsLruUnderTightBudget) {
  TempDir tmp;
  const std::uint64_t one_graph = [] {
    harness::GraphSpec spec;
    spec.kind = harness::GraphSpec::Kind::kKronecker;
    spec.scale = 7;
    spec.seed = 41;
    return serve::edge_list_bytes(harness::materialize(spec));
  }();

  // Budget fits one resident graph but not two.
  serve::ServerOptions tight;
  tight.socket_path = (tmp.path() / "tight.sock").string();
  tight.max_resident_bytes = one_graph + one_graph / 2;
  serve::Server tight_server(tight);

  const auto first = make_run_request(7, 41, "GAP", harness::Algorithm::kBfs);
  const auto second = make_run_request(7, 42, "GAP", harness::Algorithm::kBfs);
  ASSERT_EQ(serve::query_server(tight.socket_path,
                                serve::render_request(first))
                .kind,
            serve::ReplyKind::kOk);
  ASSERT_EQ(serve::query_server(tight.socket_path,
                                serve::render_request(second))
                .kind,
            serve::ReplyKind::kOk);

  auto stats = serve::query_server(tight.socket_path, "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  EXPECT_EQ(stat_value(stats.body, "evictions"), 1u);
  EXPECT_EQ(stat_value(stats.body, "cold_loads"), 2u);
  EXPECT_LE(stat_value(stats.body, "resident_graph_bytes"),
            tight.max_resident_bytes);
  // The LRU victim was the *first* graph; only the second remains.
  const auto snap = tight_server.snapshot();
  ASSERT_EQ(snap.graphs.size(), 1u);
  EXPECT_EQ(snap.graphs[0].name, second.graph.name());
  // Re-querying the evicted graph is correct (cold) service, not an error.
  ASSERT_EQ(serve::query_server(tight.socket_path,
                                serve::render_request(first))
                .kind,
            serve::ReplyKind::kOk);
  stats = serve::query_server(tight.socket_path, "stats");
  EXPECT_EQ(stat_value(stats.body, "cold_loads"), 3u);
  EXPECT_EQ(stat_value(stats.body, "evictions"), 2u);
}

TEST(ServeCoalescing, IdenticalQueuedRequestsShareOneExecution) {
  TempDir tmp;
  serve::ServerOptions opts;
  opts.socket_path = (tmp.path() / "epg.sock").string();
  serve::Server server(opts);

  fault::Scoped hang(fault::Plan{.system = "GAP",
                                 .kind = fault::Kind::kHang,
                                 .phase = "bfs"});
  const auto wedge = make_run_request(6, 51, "GAP", harness::Algorithm::kBfs,
                                      /*roots=*/1, /*deadline_ms=*/2000);
  std::thread wedge_client([&] {
    (void)serve::query_server(opts.socket_path, serve::render_request(wedge));
  });
  ASSERT_TRUE(wait_for_stats(opts.socket_path, [](const std::string& s) {
    return stat_value(s, "batches") >= 1;
  }));

  // Three identical requests pile up behind the wedge; they must fuse
  // into ONE batch and all receive the same (correct) CSV.
  const auto shared = make_run_request(6, 52, "Ligra",
                                       harness::Algorithm::kPageRank);
  const std::string want = direct_stripped_csv(shared);
  std::vector<serve::Reply> replies(3);
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&, i] {
      replies[i] = serve::query_server(opts.socket_path,
                                       serve::render_request(shared));
    });
  }
  for (auto& t : clients) t.join();
  wedge_client.join();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(replies[i].kind, serve::ReplyKind::kOk)
        << "client " << i << ": " << replies[i].body;
    EXPECT_EQ(served_stripped_csv(replies[i]), want) << "client " << i;
  }

  const auto stats = serve::query_server(opts.socket_path, "stats");
  ASSERT_EQ(stats.kind, serve::ReplyKind::kOk);
  // At least two of the three rode along; exactly one batch ran the
  // shared spec (2 batches total: the wedge and the shared one).
  EXPECT_GE(stat_value(stats.body, "coalesced"), 2u);
  EXPECT_EQ(stat_value(stats.body, "batches"), 2u);
  EXPECT_EQ(stat_value(stats.body, "cold_loads"), 2u);
}

TEST(ServeCli, ServeCommandServesAndDumpsMetricsOnClientShutdown) {
  TempDir tmp;
  const std::string socket = (tmp.path() / "epg.sock").string();

  std::ostringstream serve_out;
  int serve_rc = -1;
  std::thread daemon([&] {
    std::ostringstream err;
    serve_rc = cli::dispatch({"serve", "--socket", socket}, serve_out, err);
  });
  for (int i = 0; i < 200 && !fs::exists(socket); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(fs::exists(socket));

  // Drive it with the query subcommand (the full client path).
  std::ostringstream q1, q2, q3;
  std::ostringstream err;
  EXPECT_EQ(cli::dispatch({"query", "ping", "--socket", socket}, q1, err), 0);
  EXPECT_EQ(q1.str(), "pong\n");
  EXPECT_EQ(cli::dispatch({"query", "run", "--socket", socket, "--kind",
                           "kron", "--scale", "6", "--system", "GAP",
                           "--algorithm", "BFS", "--threads", "1"},
                          q2, err),
            0);
  EXPECT_NE(q2.str().find("run algorithm"), std::string::npos);
  EXPECT_EQ(
      cli::dispatch({"query", "shutdown", "--socket", socket}, q3, err), 0);

  daemon.join();
  EXPECT_EQ(serve_rc, 0);
  const std::string out = serve_out.str();
  EXPECT_NE(out.find("serving on " + socket), std::string::npos);
  EXPECT_NE(out.find("metrics:"), std::string::npos);
  EXPECT_NE(out.find("served 1"), std::string::npos);
  EXPECT_NE(out.find("latency_p99_ms "), std::string::npos);
  EXPECT_NE(out.find("shutdown requested by client"), std::string::npos);
  EXPECT_FALSE(fs::exists(socket)) << "socket file must be unlinked";
}

TEST(ServeCli, QueryAgainstNoServerFailsCleanly) {
  TempDir tmp;
  std::ostringstream out, err;
  const int rc = cli::dispatch(
      {"query", "ping", "--socket", (tmp.path() / "nope.sock").string()},
      out, err);
  EXPECT_EQ(rc, 1);
  EXPECT_NE(err.str().find("query"), std::string::npos);
}

}  // namespace
}  // namespace epgs
