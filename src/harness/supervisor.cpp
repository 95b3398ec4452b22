#include "harness/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "core/crash_report.hpp"
#include "core/csv.hpp"
#include "core/parallel.hpp"
#include "core/proc_stats.hpp"
#include "core/text_scan.hpp"
#include "core/timer.hpp"

namespace epgs::harness {
namespace {

/// Deadline thread for one attempt. Waits on a condition_variable against
/// a steady_clock deadline; cancels the token if the deadline passes
/// before disarm(). Destructor always disarms and joins, so the token it
/// cancels provably outlives it.
class Watchdog {
 public:
  Watchdog(CancellationToken& token, double seconds)
      : deadline_(std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds))) {
    thread_ = std::thread([this, &token] {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!done_ && std::chrono::steady_clock::now() < deadline_) {
        cv_.wait_until(lk, deadline_);
      }
      if (!done_) token.cancel();
    });
  }

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::chrono::steady_clock::time_point deadline_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// Resident-set watchdog for one attempt: polls /proc/self/statm and
/// cancels the token when RSS crosses the limit, so an over-budget unit
/// unwinds cooperatively before the kernel OOM killer gets involved.
/// RLIMIT_AS (applied in isolated children) is the hard backstop; this is
/// the soft one that also works un-isolated.
class RssWatchdog {
 public:
  RssWatchdog(CancellationToken& token, std::uint64_t limit_bytes)
      : limit_bytes_(limit_bytes) {
    thread_ = std::thread([this, &token] {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!done_) {
        // resident_set_bytes() returns 0 when /proc is unreadable, so a
        // broken /proc disables rather than trips the watchdog.
        if (resident_set_bytes() > limit_bytes_) {
          tripped_.store(true, std::memory_order_relaxed);
          token.cancel();
          return;
        }
        cv_.wait_for(lk, std::chrono::milliseconds(25));
      }
    });
  }

  ~RssWatchdog() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  RssWatchdog(const RssWatchdog&) = delete;
  RssWatchdog& operator=(const RssWatchdog&) = delete;

  [[nodiscard]] bool tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }

 private:
  std::uint64_t limit_bytes_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::atomic<bool> tripped_{false};
  std::thread thread_;
};

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

// --- Interrupt handling --------------------------------------------------

std::atomic<int> g_interrupt_signal{0};
std::atomic<bool> g_interrupt_watch{false};

/// Per-attempt interrupt watcher: cancels the token as soon as a SIGINT/
/// SIGTERM has been recorded, so the running kernel unwinds at its next
/// iteration boundary (writing a final snapshot on the way out).
class InterruptWatcher {
 public:
  explicit InterruptWatcher(CancellationToken& token) {
    thread_ = std::thread([this, &token] {
      std::unique_lock<std::mutex> lk(mutex_);
      while (!done_) {
        if (g_interrupt_signal.load(std::memory_order_relaxed) != 0) {
          token.cancel();
          return;
        }
        cv_.wait_for(lk, std::chrono::milliseconds(25));
      }
    });
  }

  ~InterruptWatcher() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  InterruptWatcher(const InterruptWatcher&) = delete;
  InterruptWatcher& operator=(const InterruptWatcher&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

/// One attempt, in this process, under the watchdogs.
TrialReport run_attempt(const UnitFn& fn, const SupervisorOptions& opts,
                        CheckpointSession* session) {
  TrialReport r;
  CancellationToken token;
  std::optional<Watchdog> dog;
  std::optional<RssWatchdog> rss_dog;
  std::optional<InterruptWatcher> int_dog;
  try {
    if (opts.timeout_seconds > 0) dog.emplace(token, opts.timeout_seconds);
    // opts.isolate here means "this is the forked child": RLIMIT_AS is
    // already the hard guard, and under a tight limit the watchdog's own
    // thread stack may not even be mappable — skip the soft guard.
    if (opts.mem_limit_bytes > 0 && !opts.isolate) {
      rss_dog.emplace(token, opts.mem_limit_bytes);
    }
    if (g_interrupt_watch.load(std::memory_order_relaxed)) {
      int_dog.emplace(token);
    }
  } catch (const std::exception&) {
    // Guard threads could not start (e.g. stack allocation refused under
    // the memory limit): run the unit unguarded rather than fail it.
  }
  try {
    r.records = fn(token);
    r.outcome = Outcome::kSuccess;
  } catch (const std::bad_alloc&) {
    r.outcome = Outcome::kOomKilled;
    r.message = "allocation failed under the memory limit (std::bad_alloc)";
  } catch (const std::exception& e) {
    r.outcome = classify_exception(e);
    r.message = one_line(e.what());
    // All three guards cancel the same token; disambiguate what the
    // resulting CancelledError meant. An interrupt trumps everything —
    // the unit is journaled as interrupted and re-run on --resume.
    if (r.outcome == Outcome::kTimeout &&
        g_interrupt_signal.load(std::memory_order_relaxed) != 0) {
      r.outcome = Outcome::kInterrupted;
      r.message = "interrupted by signal " +
                  std::to_string(g_interrupt_signal.load()) + " (" +
                  r.message + ")";
    }
    // A cancellation that unwound before the watchdog fired (it cancels,
    // we observe later) is still a timeout; but an exception that raced a
    // timer that never existed cannot be one.
    if (r.outcome == Outcome::kTimeout && opts.timeout_seconds <= 0 &&
        !(rss_dog && rss_dog->tripped())) {
      r.outcome = Outcome::kCrash;
    }
  }
  // When the RSS watchdog fired, the CancelledError means over-memory,
  // not over-time.
  if (rss_dog && rss_dog->tripped() && r.outcome == Outcome::kTimeout) {
    r.outcome = Outcome::kOomKilled;
    r.message =
        "resident set exceeded the memory limit; cancelled by the RSS "
        "watchdog (" +
        r.message + ")";
  }
  if (session != nullptr) r.resumed_from_iter = session->resumed_from();
  return r;
}

// --- fork() isolation ----------------------------------------------------

constexpr std::string_view kPayloadOutcome = "outcome ";
constexpr std::string_view kPayloadMessage = "message ";
constexpr std::string_view kPayloadResumed = "resumed ";
// "tl <record_index> <iter> <seconds> <frontier> <edges> <residual>" —
// one line per iteration-telemetry row, re-attached to records by index.
// Optional (absent in pre-telemetry payloads and for empty timelines).
constexpr std::string_view kPayloadTimeline = "tl ";
constexpr std::string_view kPayloadRecords = "records";
constexpr std::string_view kPayloadCtx = "isolated child payload";

void write_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::write(fd, data.data(), data.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone; nothing useful left to do
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
}

[[noreturn]] void child_main(const UnitFn& fn, const SupervisorOptions& opts,
                             int fd, CheckpointSession* session) {
  // libgomp's worker threads do not survive fork(): a multi-threaded
  // parallel region in the child deadlocks waiting for a pool that no
  // longer exists. Pin the child to one thread for correctness; the cost
  // is on the caller's DESIGN.md trade-off list.
  ThreadScope scope(1);
  // Crash forensics: if this child dies on a fatal signal, leave a
  // post-mortem (signal, backtrace, phase/iteration, armed faults) for
  // the parent to attach to the unit's journal record. arm() failure is
  // silently tolerated — forensics must never fail a trial.
  if (!opts.crash_report_path.empty()) {
    (void)crash::arm(opts.crash_report_path);
  }
  if (opts.mem_limit_bytes > 0) {
    // Hard ceiling: any allocation past the cap fails with bad_alloc,
    // which run_attempt classifies as kOomKilled. RLIMIT_AS counts the
    // COW address space inherited from the parent, so the effective
    // budget for *new* allocations is limit minus the parent footprint.
    struct rlimit rl{};
    rl.rlim_cur = rl.rlim_max = opts.mem_limit_bytes;
    (void)::setrlimit(RLIMIT_AS, &rl);
  }
  TrialReport r = run_attempt(fn, opts, session);
  std::ostringstream os;
  os.precision(17);
  os << kPayloadOutcome << outcome_name(r.outcome) << '\n'
     << kPayloadMessage << one_line(r.message) << '\n'
     << kPayloadResumed << r.resumed_from_iter << '\n';
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    for (const IterRecord& row : r.records[i].timeline) {
      os << kPayloadTimeline << i << ' ' << row.iter << ' ' << row.seconds
         << ' ' << row.frontier << ' ' << row.edges << ' ' << row.residual
         << '\n';
    }
  }
  os << kPayloadRecords << '\n' << records_to_csv(r.records);
  write_all(fd, os.str());
  ::close(fd);
  ::_exit(0);  // skip atexit/static destructors: this is not our process
}

TrialReport parse_child_payload(const std::string& payload) {
  TrialReport r;
  std::size_t pos = payload.find('\n');
  EPGS_CHECK(pos != std::string::npos &&
                 payload.compare(0, kPayloadOutcome.size(),
                                 kPayloadOutcome) == 0,
             "isolated child payload: missing outcome line");
  r.outcome = outcome_from_name(
      payload.substr(kPayloadOutcome.size(), pos - kPayloadOutcome.size()));

  std::size_t line_start = pos + 1;
  pos = payload.find('\n', line_start);
  EPGS_CHECK(pos != std::string::npos &&
                 payload.compare(line_start, kPayloadMessage.size(),
                                 kPayloadMessage) == 0,
             "isolated child payload: missing message line");
  r.message = payload.substr(line_start + kPayloadMessage.size(),
                             pos - line_start - kPayloadMessage.size());

  // Optional "resumed <n>" line (absent in pre-checkpoint payloads).
  line_start = pos + 1;
  if (payload.compare(line_start, kPayloadResumed.size(), kPayloadResumed) ==
      0) {
    pos = payload.find('\n', line_start);
    EPGS_CHECK(pos != std::string::npos,
               "isolated child payload: torn resumed line");
    r.resumed_from_iter = text::require_number<std::int64_t>(
        std::string_view(payload).substr(
            line_start + kPayloadResumed.size(),
            pos - line_start - kPayloadResumed.size()),
        kPayloadCtx, "resumed iteration");
    line_start = pos + 1;
  }

  // Optional "tl ..." telemetry lines (absent in pre-telemetry payloads).
  std::vector<std::pair<std::size_t, IterRecord>> timeline_rows;
  while (payload.compare(line_start, kPayloadTimeline.size(),
                         kPayloadTimeline) == 0) {
    pos = payload.find('\n', line_start);
    EPGS_CHECK(pos != std::string::npos,
               "isolated child payload: torn timeline line");
    std::string_view fields = std::string_view(payload).substr(
        line_start + kPayloadTimeline.size(),
        pos - line_start - kPayloadTimeline.size());
    std::string_view tok[6];
    for (std::string_view& t : tok) t = text::next_token(fields);
    EPGS_CHECK(text::next_token(fields).empty(),
               "isolated child payload: trailing timeline field");
    const auto idx = text::require_number<std::size_t>(tok[0], kPayloadCtx,
                                                       "timeline record");
    IterRecord row;
    row.iter = text::require_number<std::uint64_t>(tok[1], kPayloadCtx,
                                                   "timeline iter");
    row.seconds =
        text::require_number<double>(tok[2], kPayloadCtx, "timeline seconds");
    row.frontier = text::require_number<std::uint64_t>(tok[3], kPayloadCtx,
                                                       "timeline frontier");
    row.edges = text::require_number<std::uint64_t>(tok[4], kPayloadCtx,
                                                    "timeline edges");
    // "nan" marks a row without a residual.
    row.residual = text::require_number<double>(tok[5], kPayloadCtx,
                                                "timeline residual");
    timeline_rows.emplace_back(idx, row);
    line_start = pos + 1;
  }

  pos = payload.find('\n', line_start);
  EPGS_CHECK(pos != std::string::npos &&
                 payload.compare(line_start, pos - line_start,
                                 kPayloadRecords) == 0,
             "isolated child payload: missing records marker");
  r.records = records_from_csv(payload.substr(pos + 1));
  for (auto& [idx, row] : timeline_rows) {
    EPGS_CHECK(idx < r.records.size(),
               "isolated child payload: timeline row for missing record");
    r.records[idx].timeline.push_back(row);
  }
  return r;
}

TrialReport run_isolated_attempt(const UnitFn& fn,
                                 const SupervisorOptions& opts,
                                 CheckpointSession* session) {
  int fds[2];
  EPGS_CHECK(::pipe(fds) == 0, "pipe() failed for trial isolation");

  // Drop any report a previous attempt left: a stale stack must not be
  // attributed to this attempt if it dies report-less (e.g. SIGKILL).
  if (!opts.crash_report_path.empty()) {
    ::unlink(opts.crash_report_path.c_str());
  }

  const pid_t pid = ::fork();
  EPGS_CHECK(pid >= 0, "fork() failed for trial isolation");
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fn, opts, fds[1], session);  // never returns
  }
  ::close(fds[1]);

  // The child carries its own watchdog; this hard deadline only matters
  // when the child is wedged beyond cooperative cancellation (e.g. a hang
  // inside an OpenMP region). Grace factor + constant floor keep slow
  // teardown from being misread as a hang.
  const double hard_deadline =
      opts.timeout_seconds > 0 ? opts.timeout_seconds * 1.5 + 2.0 : -1.0;

  std::string payload;
  char buf[4096];
  bool hard_killed = false;
  WallTimer t;
  struct pollfd pfd{fds[0], POLLIN, 0};
  for (;;) {
    if (hard_deadline > 0 && t.seconds() > hard_deadline) {
      ::kill(pid, SIGKILL);
      hard_killed = true;
      break;
    }
    const int pr = ::poll(&pfd, 1, 50);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pr == 0) continue;
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: child exited (or died)
    payload.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  int status = 0;
  ::waitpid(pid, &status, 0);

  // Post-mortem: whichever way the child died, check whether its crash
  // handler left a report. A SIGKILL death leaves none (unblockable);
  // read_report simply returns nullopt for the absent/stale file.
  const auto attach_forensics = [&opts](TrialReport& out) {
    if (opts.crash_report_path.empty()) return;
    if (const auto cr = crash::read_report(opts.crash_report_path)) {
      out.crash_fingerprint = cr->fingerprint;
      out.crash_report_path = opts.crash_report_path;
      std::string where = cr->phase;
      if (cr->iteration >= 0) {
        where += " iter=" + std::to_string(cr->iteration);
      }
      out.message += " [" + cr->signal_name +
                     (where.empty() ? "" : " at " + where) +
                     (cr->fingerprint.empty()
                          ? ""
                          : " stack=" + cr->fingerprint.substr(0, 8)) +
                     "]";
    }
  };

  TrialReport r;
  if (hard_killed) {
    r.outcome = Outcome::kTimeout;
    r.message = "isolated trial exceeded the hard deadline and was killed";
    return r;
  }
  if (WIFSIGNALED(status)) {
    if (WTERMSIG(status) == SIGKILL) {
      // We did not send it (hard_killed returned above), so this is the
      // kernel OOM killer — the governor's worst case, still per-unit.
      r.outcome = Outcome::kOomKilled;
      r.message = "isolated trial SIGKILLed (kernel OOM killer)";
    } else {
      r.outcome = Outcome::kCrash;
      r.message = "isolated trial killed by signal " +
                  std::to_string(WTERMSIG(status));
    }
    attach_forensics(r);
    return r;
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.outcome = Outcome::kCrash;
    r.message = "isolated trial exited with status " +
                std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    attach_forensics(r);
    return r;
  }
  try {
    return parse_child_payload(payload);
  } catch (const std::exception& e) {
    r.outcome = Outcome::kCrash;
    r.message = std::string("isolated trial returned a corrupt payload: ") +
                e.what();
    return r;
  }
}

}  // namespace

Outcome classify_exception(const std::exception& e) {
  if (dynamic_cast<const CancelledError*>(&e) != nullptr) {
    return Outcome::kTimeout;
  }
  if (dynamic_cast<const TransientError*>(&e) != nullptr) {
    return Outcome::kTransient;
  }
  if (dynamic_cast<const UnsupportedAlgorithm*>(&e) != nullptr) {
    return Outcome::kUnsupported;
  }
  if (dynamic_cast<const ValidationFailedError*>(&e) != nullptr) {
    return Outcome::kValidationFailed;
  }
  if (dynamic_cast<const std::bad_alloc*>(&e) != nullptr) {
    return Outcome::kOomKilled;
  }
  if (dynamic_cast<const ResourceExhaustedError*>(&e) != nullptr) {
    return Outcome::kResourceExhausted;
  }
  return Outcome::kCrash;
}

double backoff_delay(const SupervisorOptions& opts, int attempt,
                     Xoshiro256& rng) {
  double d = opts.backoff_base_seconds *
             static_cast<double>(1u << (attempt > 0 ? attempt - 1 : 0));
  d *= 1.0 + rng.uniform();  // full jitter: avoid retry convoys
  return d < opts.backoff_max_seconds ? d : opts.backoff_max_seconds;
}

void request_interrupt(int signal) noexcept {
  g_interrupt_signal.store(signal, std::memory_order_relaxed);
}

int interrupt_signal() noexcept {
  return g_interrupt_signal.load(std::memory_order_relaxed);
}

bool interrupt_requested() noexcept { return interrupt_signal() != 0; }

void reset_interrupt() noexcept {
  g_interrupt_signal.store(0, std::memory_order_relaxed);
}

void enable_interrupt_watch(bool on) noexcept {
  g_interrupt_watch.store(on, std::memory_order_relaxed);
}

TrialReport supervise_unit(const UnitFn& fn, const SupervisorOptions& opts,
                           Xoshiro256& rng, CheckpointSession* session) {
  TrialReport report;
  WallTimer total;
  for (int attempt = 1;; ++attempt) {
    TrialReport r = opts.isolate ? run_isolated_attempt(fn, opts, session)
                                 : run_attempt(fn, opts, session);
    report.outcome = r.outcome;
    report.message = std::move(r.message);
    report.records = std::move(r.records);
    report.resumed_from_iter = r.resumed_from_iter;
    report.attempts = attempt;
    // A later clean attempt keeps the forensics of the crash it recovered
    // from: "passed on retry after SIGSEGV at iter 12" is the interesting
    // datum, and the fingerprint feeds the aggregated failure table.
    if (!r.crash_fingerprint.empty()) {
      report.crash_fingerprint = std::move(r.crash_fingerprint);
      report.crash_report_path = std::move(r.crash_report_path);
    }
    if (report.outcome == Outcome::kSuccess ||
        report.outcome == Outcome::kInterrupted ||
        attempt > opts.max_retries) {
      break;
    }
    // Transient failures have always been retryable. With a snapshot on
    // disk, a timed-out / crashed / OOM-killed attempt is too: the retry
    // restores the snapshot and continues from iteration N instead of
    // repeating the work that already failed once.
    const bool snapshot_resumable =
        session != nullptr && session->snapshot_exists() &&
        (report.outcome == Outcome::kTimeout ||
         report.outcome == Outcome::kCrash ||
         report.outcome == Outcome::kOomKilled);
    // retry_all_failures widens eligibility to every recoverable outcome
    // (full restart when no snapshot exists). kConfig/kUnsupported stay
    // terminal: they reproduce by construction, retries only burn time.
    const bool retry_all =
        opts.retry_all_failures &&
        (report.outcome == Outcome::kTimeout ||
         report.outcome == Outcome::kCrash ||
         report.outcome == Outcome::kOomKilled ||
         report.outcome == Outcome::kValidationFailed ||
         report.outcome == Outcome::kResourceExhausted);
    if (report.outcome != Outcome::kTransient && !snapshot_resumable &&
        !retry_all) {
      break;
    }
    if (interrupt_requested()) break;  // don't start new attempts
    report.last_failure = report.outcome;
    // The next attempt unlinks the canonical report path before forking;
    // move this attempt's post-mortem aside so a recovered-after-crash
    // unit still points at a live file.
    if (!report.crash_report_path.empty() &&
        report.crash_report_path == opts.crash_report_path) {
      const std::string preserved = opts.crash_report_path + ".prev";
      if (std::rename(opts.crash_report_path.c_str(), preserved.c_str()) ==
          0) {
        report.crash_report_path = preserved;
      }
    }
    const double delay = backoff_delay(opts, attempt, rng);
    std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  }
  report.elapsed_seconds = total.seconds();
  // arm() pre-creates the report file at child start; a unit whose final
  // attempt never crashed leaves it empty. Drop it so --crash-dir holds
  // only real post-mortems (.prev files from survived crashes included).
  if (!opts.crash_report_path.empty() &&
      report.crash_report_path != opts.crash_report_path) {
    struct stat st{};
    if (::stat(opts.crash_report_path.c_str(), &st) == 0 && st.st_size == 0) {
      ::unlink(opts.crash_report_path.c_str());
    }
  }
  return report;
}

// --- Journal -------------------------------------------------------------

namespace {
constexpr std::string_view kJournalMagic = "epgs-journal-v1";
}  // namespace

Journal::~Journal() { close(); }

void Journal::open_fresh(const std::string& path,
                         const std::string& fingerprint) {
  close();
  degraded_reason_.clear();
  file_ = std::make_unique<fsx::OutStream>(path,
                                           fsx::OutStream::Mode::kTruncate);
  *file_ << kJournalMagic << "\nconfig " << fingerprint << '\n';
  file_->sync_now();
  // Durability of the file itself, not just its bytes: fsync the parent
  // directory so the journal entry survives a crash right after creation.
  const auto parent = std::filesystem::path(path).parent_path();
  fsx::fsync_dir(parent.empty() ? std::filesystem::path(".") : parent);
}

void Journal::open_append(const std::string& path) {
  close();
  degraded_reason_.clear();
  file_ = std::make_unique<fsx::OutStream>(path,
                                           fsx::OutStream::Mode::kAppend);
}

void Journal::append(const std::string& key, const TrialReport& report) {
  if (file_ == nullptr) return;
  std::ostringstream os;
  os << "unit " << key << '|' << outcome_name(report.outcome) << '|'
     << report.attempts << '|' << report.records.size() << '\n';
  CsvWriter w(os);
  for (const auto& rec : report.records) {
    os << "rec ";
    w.write_row(record_to_csv_row(rec));
  }
  if (!report.crash_fingerprint.empty()) {
    os << "crash " << report.crash_fingerprint << '|'
       << report.crash_report_path << '\n';
  }
  os << "end " << report.attempts << '|'
     << outcome_name(report.last_failure) << '|' << report.resumed_from_iter
     << '\n';
  const std::string group = os.str();
  try {
    *file_ << group;
    // fsync per group: a group is durable or absent, never half-written
    // after a crash (replay additionally drops a torn trailing group).
    file_->sync_now();
  } catch (const EpgsError& e) {
    // Disk full (or injected fault) mid-sweep: journaling stops, the
    // sweep does not. Replay tolerates the torn tail this may leave.
    degraded_reason_ = one_line(e.what());
    file_.reset();
  }
}

void Journal::append_checkpoint(const std::string& key,
                                std::uint64_t iteration) {
  if (file_ == nullptr) return;
  std::ostringstream os;
  os << "ckpt " << key << '|' << iteration << '\n';
  try {
    *file_ << os.str();
    file_->sync_now();
  } catch (const EpgsError& e) {
    degraded_reason_ = one_line(e.what());
    file_.reset();
  }
}

void Journal::close() {
  if (file_ != nullptr) {
    try {
      file_->close();
    } catch (const EpgsError& e) {
      degraded_reason_ = one_line(e.what());
    }
    file_.reset();
  }
}

std::vector<JournalEntry> replay_journal(const std::string& path,
                                         const std::string& fingerprint) {
  std::ifstream in(path);
  EPGS_CHECK(in.good(), "cannot open journal for resume: " + path);
  std::string line;
  EPGS_CHECK(std::getline(in, line) && line == kJournalMagic,
             "journal has a bad header: " + path);
  EPGS_CHECK(std::getline(in, line) && line.rfind("config ", 0) == 0,
             "journal is missing its config line: " + path);
  const std::string recorded = line.substr(7);
  EPGS_CHECK(recorded == fingerprint,
             "journal was written by a different experiment configuration "
             "(journal: '" +
                 recorded + "', current: '" + fingerprint + "')");

  std::vector<JournalEntry> entries;
  while (std::getline(in, line)) {
    // "ckpt" breadcrumbs interleave with unit groups; they carry no replay
    // state (the snapshot file itself is the state) so skip them. A torn
    // ckpt tail fails the "unit " prefix check below like any torn line.
    if (line.rfind("ckpt ", 0) == 0) continue;
    if (line.rfind("unit ", 0) != 0) break;  // torn or foreign: stop here
    // unit <key>|<outcome>|<attempts>|<nrec> — key may itself contain '|',
    // so split from the right.
    const std::string body = line.substr(5);
    const std::size_t p3 = body.rfind('|');
    if (p3 == std::string::npos) break;
    const std::size_t p2 = body.rfind('|', p3 - 1);
    if (p2 == std::string::npos) break;
    const std::size_t p1 = body.rfind('|', p2 - 1);
    if (p1 == std::string::npos) break;

    JournalEntry e;
    std::size_t nrec = 0;
    try {
      e.key = body.substr(0, p1);
      e.outcome = outcome_from_name(body.substr(p1 + 1, p2 - p1 - 1));
      e.attempts = text::require_number<int>(
          std::string_view(body).substr(p2 + 1, p3 - p2 - 1), "journal",
          "attempts");
      nrec = text::require_number<std::size_t>(
          std::string_view(body).substr(p3 + 1), "journal", "record count");
    } catch (const std::exception&) {
      break;
    }

    bool complete = true;
    for (std::size_t i = 0; i < nrec; ++i) {
      if (!std::getline(in, line) || line.rfind("rec ", 0) != 0) {
        complete = false;
        break;
      }
      try {
        const auto rows = parse_csv(line.substr(4));
        EPGS_CHECK(rows.size() == 1, "journal rec line is not one CSV row");
        e.records.push_back(record_from_csv_row(rows[0]));
      } catch (const std::exception&) {
        complete = false;
        break;
      }
    }
    if (!complete || !std::getline(in, line)) {
      break;  // torn trailing group: the in-flight unit simply re-runs
    }
    if (line.rfind("crash ", 0) == 0) {
      // crash <fingerprint>|<report_path> — optional forensics line.
      const std::string body2 = line.substr(6);
      const std::size_t bar = body2.find('|');
      e.crash_fingerprint =
          bar == std::string::npos ? body2 : body2.substr(0, bar);
      if (bar != std::string::npos) {
        e.crash_report_path = body2.substr(bar + 1);
      }
      if (!std::getline(in, line)) break;  // torn tail
    }
    if (line.rfind("end ", 0) == 0) {
      // end <attempts>|<last_failure>|<resumed_from_iter>
      const std::string tail = line.substr(4);
      const std::size_t q1 = tail.find('|');
      const std::size_t q2 =
          q1 == std::string::npos ? std::string::npos : tail.find('|', q1 + 1);
      if (q2 == std::string::npos) break;
      try {
        e.attempts = text::require_number<int>(
            std::string_view(tail).substr(0, q1), "journal", "attempts");
        e.last_failure = outcome_from_name(tail.substr(q1 + 1, q2 - q1 - 1));
        e.resumed_from_iter = text::require_number<std::int64_t>(
            std::string_view(tail).substr(q2 + 1), "journal",
            "resumed iteration");
      } catch (const std::exception&) {
        break;
      }
    } else if (line != "end") {  // bare "end": pre-checkpoint grammar
      break;
    }
    entries.push_back(std::move(e));
  }
  return entries;
}

std::string config_fingerprint(const ExperimentConfig& cfg) {
  std::ostringstream os;
  os << cfg.graph.name() << ";roots=" << cfg.num_roots
     << ";root_seed=" << cfg.root_seed << ";threads=" << cfg.threads
     << ";rebuild=" << (cfg.reconstruct_per_trial ? 1 : 0)
     << ";validate=" << (cfg.validate ? 1 : 0)
     << ";cdlp_it=" << cfg.cdlp_iterations << ";algs=";
  for (const Algorithm a : cfg.algorithms) os << algorithm_name(a) << ',';
  // The data path changes the unit set (native-file mode adds load
  // units), so a journal from one mode must not resume the other.
  os << ";datapath=" << (cfg.dataset.enabled() ? "file" : "ram");
  return os.str();
}

}  // namespace epgs::harness
