// Crash forensics: a fork child dying on SIGSEGV/SIGABRT leaves a
// parseable post-mortem report — signal, fault context notes, a
// non-empty backtrace — and identical crash sites fingerprint
// identically, while garbage or absent files parse to nullopt.
#include "core/crash_report.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

namespace epgs::crash {
namespace {

namespace fs = std::filesystem;

class CrashReportDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgs_crash_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { if (!::getenv("EPGS_KEEP_CRASH")) fs::remove_all(dir_); }

  [[nodiscard]] fs::path report(const std::string& name) const {
    return dir_ / name;
  }

  fs::path dir_;
};

/// Deliberate out-of-line crash site so both children die at the same
/// stack frame and the ASLR-stable fingerprints can be compared.
[[gnu::noinline]] void crash_with_null_store() {
  volatile int* p = nullptr;
  *p = 42;  // SIGSEGV, fault address 0
}

/// Fork a child that arms forensics on `path`, records context notes,
/// and dies via `die`. Returns the child's terminating signal (0 when it
/// exited normally instead — a test failure).
template <typename Die>
int crash_in_child(const fs::path& path, Die&& die) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (!arm(path)) _exit(9);
    // Context notes only register once armed (a disarmed process pays a
    // single atomic load) — same order the supervisor's child uses.
    note_phase("GAP", "bfs");
    note_iteration(7);
    note_fault(0, "phase-fault segv GAP/bfs");
    die();
    _exit(0);  // unreachable when `die` actually dies
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFSIGNALED(status) ? WTERMSIG(status) : 0;
}

TEST_F(CrashReportDir, SegvChildLeavesParseableReportWithBacktrace) {
  const auto path = report("segv.crash");
  ASSERT_EQ(crash_in_child(path, crash_with_null_store), SIGSEGV)
      << "the handler must re-raise with SIG_DFL so the parent sees the "
         "true WTERMSIG";

  const auto rep = read_report(path);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->signal, SIGSEGV);
  EXPECT_EQ(rep->signal_name, "SIGSEGV");
  EXPECT_EQ(rep->phase, "GAP/bfs");
  EXPECT_EQ(rep->iteration, 7);
  ASSERT_FALSE(rep->faults.empty());
  EXPECT_EQ(rep->faults[0], "phase-fault segv GAP/bfs");
  EXPECT_FALSE(rep->backtrace.empty())
      << "a SIGSEGV report without a stack is useless for triage";
  ASSERT_EQ(rep->fingerprint.size(), 16u);
  EXPECT_EQ(rep->fingerprint.find_first_not_of("0123456789abcdef"),
            std::string::npos);
}

TEST_F(CrashReportDir, AbortChildReportsSigabrt) {
  const auto path = report("abrt.crash");
  ASSERT_EQ(crash_in_child(path, [] { std::abort(); }), SIGABRT);

  const auto rep = read_report(path);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->signal, SIGABRT);
  EXPECT_EQ(rep->signal_name, "SIGABRT");
  EXPECT_FALSE(rep->backtrace.empty());
}

TEST_F(CrashReportDir, IdenticalCrashSitesFingerprintIdentically) {
  const auto a = report("a.crash");
  const auto b = report("b.crash");
  // One call site for both crashes: the fingerprint hashes the whole
  // stack, so two *different* call sites would rightly differ.
  for (const auto& path : {a, b}) {
    ASSERT_EQ(crash_in_child(path, crash_with_null_store), SIGSEGV);
  }

  const auto ra = read_report(a);
  const auto rb = read_report(b);
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_EQ(ra->fingerprint, rb->fingerprint)
      << "same crash site must dedup under one fingerprint";
}

TEST_F(CrashReportDir, MissingEmptyAndGarbageFilesParseToNullopt) {
  EXPECT_FALSE(read_report(report("absent.crash")).has_value());

  const auto empty = report("empty.crash");
  std::ofstream(empty).flush();
  EXPECT_FALSE(read_report(empty).has_value())
      << "an empty file is a SIGKILL (handler never ran), not a report";

  const auto garbage = report("garbage.crash");
  std::ofstream(garbage) << "this is not a crash report\nsignal 11\n";
  EXPECT_FALSE(read_report(garbage).has_value());

  // Right magic, but a numeric field that is not a number.
  for (const char* field :
       {"signal 11x SIGSEGV", "code abc", "errno ", "iteration 7.5"}) {
    const auto bad_num = report("bad_num.crash");
    std::ofstream(bad_num) << "epgs-crash-v1\nsignal 11 SIGSEGV\n"
                           << field << "\nbacktrace:\nframe\n";
    EXPECT_FALSE(read_report(bad_num).has_value()) << field;
  }
}

TEST_F(CrashReportDir, ArmFailureLeavesProcessDisarmedNotBroken) {
  // Forensics must never turn an unopenable report path into a trial
  // failure: arm() reports false and the process stays disarmed.
  const pid_t pid = ::fork();
  if (pid == 0) {
    const bool ok = arm("/nonexistent-dir-epgs/report.crash");
    _exit(ok || armed() ? 1 : 0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
}

TEST(CrashReportNames, SignalNamesAndFingerprintStability) {
  EXPECT_EQ(signal_name(SIGSEGV), "SIGSEGV");
  EXPECT_EQ(signal_name(SIGABRT), "SIGABRT");
  EXPECT_EQ(signal_name(SIGBUS), "SIGBUS");

  // The fingerprint hashes only the ASLR-stable module+offset text, so
  // differing absolute addresses collapse to one fingerprint...
  const std::vector<std::string> run1 = {
      "./epg(+0x1234) [0x55e0aaaa1234]", "libc.so.6(+0xabcd) [0x7f001abcd]"};
  const std::vector<std::string> run2 = {
      "./epg(+0x1234) [0x561133331234]", "libc.so.6(+0xabcd) [0x7f113abcd]"};
  EXPECT_EQ(stack_fingerprint(run1), stack_fingerprint(run2));

  // ...while a different frame changes it.
  const std::vector<std::string> other = {
      "./epg(+0x9999) [0x55e0aaaa9999]", "libc.so.6(+0xabcd) [0x7f001abcd]"};
  EXPECT_NE(stack_fingerprint(run1), stack_fingerprint(other));
}

}  // namespace
}  // namespace epgs::crash
