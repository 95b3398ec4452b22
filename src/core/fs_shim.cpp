#include "core/fs_shim.hpp"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <streambuf>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/statvfs.h>
#include <unistd.h>

#include "core/crash_report.hpp"
#include "core/error.hpp"
#include "core/text_scan.hpp"

namespace epgs::fsx {
namespace {

Plan g_plan;
std::atomic<bool> g_armed{false};
std::atomic<int> g_calls{0};
std::atomic<int> g_fires{0};

/// Consult the armed plan for one syscall. Returns the errno to inject
/// (0 = proceed), with `*short_write` set when a kWrite fault asks for a
/// torn write instead of a failure.
int maybe_inject(Op op, const std::filesystem::path& p,
                 bool* short_write = nullptr) {
  if (!g_armed.load(std::memory_order_acquire)) return 0;
  if (g_plan.op != op) return 0;
  if (!g_plan.path_substr.empty() &&
      p.native().find(g_plan.path_substr) == std::string::npos) {
    return 0;
  }
  const int call = g_calls.fetch_add(1) + 1;  // 1-based
  if (call < g_plan.at_call) return 0;
  if (g_fires.load() >= g_plan.max_fires) return 0;
  g_fires.fetch_add(1);
  if (short_write != nullptr && g_plan.short_write) {
    *short_write = true;
    return 0;
  }
  return g_plan.error_code;
}

[[noreturn]] void throw_errno(Op op, const std::filesystem::path& p,
                              int err) {
  const std::string msg = std::string(op_name(op)) + " failed for " +
                          p.string() + ": " + std::strerror(err);
  switch (err) {
    case ENOSPC:
    case EDQUOT:
    case EMFILE:
    case ENFILE:
    case ENOMEM:
      throw ResourceExhaustedError(msg);
    default:
      throw IoError(msg);
  }
}

/// write(2) every byte of `data`, surviving EINTR and short writes (real
/// or injected). The single write path all shim writers share.
void write_all(int fd, const char* data, std::size_t n,
               const std::filesystem::path& p) {
  while (n > 0) {
    bool shorten = false;
    const int err = maybe_inject(Op::kWrite, p, &shorten);
    if (err != 0) throw_errno(Op::kWrite, p, err);
    // A torn write hands the kernel a strict prefix; the loop must finish
    // the rest or the file is silently truncated.
    const std::size_t ask = shorten ? (n > 1 ? n / 2 : 1) : n;
    const ssize_t w = ::write(fd, data, ask);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno(Op::kWrite, p, errno);
    }
    data += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

struct ErrnoName {
  std::string_view name;
  int value;
};

constexpr ErrnoName kErrnoNames[] = {
    {"ENOSPC", ENOSPC}, {"EIO", EIO},       {"EDQUOT", EDQUOT},
    {"EMFILE", EMFILE}, {"ENFILE", ENFILE}, {"ENOMEM", ENOMEM},
    {"EACCES", EACCES}, {"EROFS", EROFS},
};

/// Short human description of the armed plan for crash forensics.
std::string describe(const Plan& plan) {
  std::string d = "fs:";
  d += op_name(plan.op);
  d += plan.short_write ? ":short" : (":errno=" +
                                      std::to_string(plan.error_code));
  d += " at=" + std::to_string(plan.at_call);
  d += " count=" + std::to_string(plan.max_fires);
  if (!plan.path_substr.empty()) d += " path=" + plan.path_substr;
  return d;
}

/// Crash-note slot owned by the fs shim (slots 0-2 belong to the phase
/// injector; see fault_injection.cpp).
constexpr int kNoteFsPlan = 3;

}  // namespace

std::string_view op_name(Op op) {
  switch (op) {
    case Op::kOpen: return "open";
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kRename: return "rename";
    case Op::kFsync: return "fsync";
    case Op::kMmap: return "mmap";
  }
  return "?";
}

Op op_from_name(std::string_view name) {
  for (const Op op : {Op::kOpen, Op::kRead, Op::kWrite, Op::kRename,
                      Op::kFsync, Op::kMmap}) {
    if (op_name(op) == name) return op;
  }
  throw EpgsError("fs fault spec: unknown op '" + std::string(name) + "'");
}

void arm(const Plan& plan) {
  g_plan = plan;
  g_calls.store(0);
  g_fires.store(0);
  g_armed.store(true, std::memory_order_release);
  crash::note_fault(kNoteFsPlan, describe(plan));
}

void disarm() {
  g_armed.store(false, std::memory_order_release);
  g_plan = Plan{};
  g_calls.store(0);
  g_fires.store(0);
  crash::note_fault(kNoteFsPlan, {});
}

bool armed() { return g_armed.load(std::memory_order_acquire); }

int call_count() { return g_calls.load(); }

int fire_count() { return g_fires.load(); }

void arm_from_spec(std::string_view spec) {
  Plan plan;
  // Empty fields are kept so "write::ENOSPC" and a trailing colon are
  // rejected loudly instead of silently collapsing.
  const std::vector<std::string_view> parts = text::split(spec, ':');
  EPGS_CHECK(parts.size() >= 2,
             "fs fault spec needs at least <op>:<errno>");
  for (const std::string_view part : parts) {
    EPGS_CHECK(!part.empty(),
               "fs fault spec: empty field (doubled or trailing ':')");
  }
  plan.op = op_from_name(parts[0]);

  plan.error_code = -1;
  for (const auto& [name, value] : kErrnoNames) {
    if (parts[1] == name) plan.error_code = value;
  }
  if (plan.error_code < 0) {
    if (parts[1] == "short") {
      plan.short_write = true;
      plan.error_code = 0;
    } else {
      throw EpgsError("fs fault spec: unknown errno '" +
                      std::string(parts[1]) + "'");
    }
  }

  for (std::size_t i = 2; i < parts.size(); ++i) {
    const std::string_view part = parts[i];
    if (part == "short") {
      plan.short_write = true;
    } else if (part.rfind("at=", 0) == 0) {
      plan.at_call =
          text::require_number<int>(part.substr(3), "fs fault spec", "at=");
      EPGS_CHECK(plan.at_call >= 1, "fs fault spec: at= must be >= 1");
    } else if (part.rfind("count=", 0) == 0) {
      plan.max_fires = text::require_number<int>(part.substr(6),
                                                 "fs fault spec", "count=");
      EPGS_CHECK(plan.max_fires >= 1, "fs fault spec: count= must be >= 1");
    } else if (part.rfind("path=", 0) == 0) {
      plan.path_substr = std::string(part.substr(5));
      EPGS_CHECK(!plan.path_substr.empty(),
                 "fs fault spec: path= needs a substring");
    } else {
      throw EpgsError("fs fault spec: unknown field '" + std::string(part) +
                      "'");
    }
  }
  arm(plan);
}

void arm_from_env() {
  const char* spec = std::getenv("EPGS_FS_FAULT");
  if (spec != nullptr && *spec != '\0') arm_from_spec(spec);
}

// --- Throwing syscall wrappers ----------------------------------------

int open_read(const std::filesystem::path& p) {
  const int err = maybe_inject(Op::kOpen, p);
  if (err != 0) throw_errno(Op::kOpen, p, err);
  const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno(Op::kOpen, p, errno);
  return fd;
}

std::size_t read_some(int fd, void* buf, std::size_t n,
                      const std::filesystem::path& p) {
  const int err = maybe_inject(Op::kRead, p);
  if (err != 0) throw_errno(Op::kRead, p, err);
  for (;;) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0) return static_cast<std::size_t>(r);
    if (errno != EINTR) throw_errno(Op::kRead, p, errno);
  }
}

void* mmap_read(int fd, std::size_t n, const std::filesystem::path& p) {
  if (maybe_inject(Op::kMmap, p) != 0) return nullptr;
  void* m = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);
  return m == MAP_FAILED ? nullptr : m;
}

void rename(const std::filesystem::path& from,
            const std::filesystem::path& to) {
  const int err = maybe_inject(Op::kRename, to);
  if (err != 0) throw_errno(Op::kRename, to, err);
  if (::rename(from.c_str(), to.c_str()) != 0) {
    throw_errno(Op::kRename, to, errno);
  }
}

void fsync_fd(int fd, const std::filesystem::path& p) {
  const int err = maybe_inject(Op::kFsync, p);
  if (err != 0) throw_errno(Op::kFsync, p, err);
  if (::fsync(fd) != 0) {
    // EINVAL: the fd does not support synchronisation (pipes, some
    // special files) — not a durability failure of a real file.
    if (errno != EINVAL) throw_errno(Op::kFsync, p, errno);
  }
}

void fsync_dir(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno(Op::kOpen, dir, errno);
  try {
    fsync_fd(fd, dir);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void fsync_path(const std::filesystem::path& p) {
  const int fd = ::open(p.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno(Op::kOpen, p, errno);
  try {
    fsync_fd(fd, p);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

std::uint64_t free_disk_bytes(const std::filesystem::path& p) {
  struct statvfs vfs{};
  if (::statvfs(p.c_str(), &vfs) != 0) {
    throw IoError("statvfs failed for " + p.string() + ": " +
                  std::strerror(errno));
  }
  return static_cast<std::uint64_t>(vfs.f_bavail) * vfs.f_frsize;
}

// --- OutStream ---------------------------------------------------------

/// streambuf over an fd whose every flush goes through write_all (and so
/// through the injection hooks). 64 KiB buffering keeps the formatted
/// writers (mtx/tsv/adj emit line-at-a-time) off the syscall path.
class OutStream::Buf : public std::streambuf {
 public:
  Buf(const std::filesystem::path& p, Mode mode)
      : path_(p), buffer_(64 * 1024) {
    const int err = maybe_inject(Op::kOpen, p);
    if (err != 0) throw_errno(Op::kOpen, p, err);
    const int flags = O_WRONLY | O_CREAT | O_CLOEXEC |
                      (mode == Mode::kAppend ? O_APPEND : O_TRUNC);
    fd_ = ::open(p.c_str(), flags, 0644);
    if (fd_ < 0) throw_errno(Op::kOpen, p, errno);
    setp(buffer_.data(), buffer_.data() + buffer_.size());
  }

  ~Buf() override { close_fd(); }

  void flush_to_fd() {
    const std::size_t pending = static_cast<std::size_t>(pptr() - pbase());
    if (pending > 0) {
      write_all(fd_, pbase(), pending, path_);
      setp(buffer_.data(), buffer_.data() + buffer_.size());
    }
  }

  void fsync_now() {
    flush_to_fd();
    fsync_fd(fd_, path_);
  }

  void close_fd() noexcept {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  [[nodiscard]] bool open() const { return fd_ >= 0; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 protected:
  int overflow(int ch) override {
    flush_to_fd();
    if (ch != traits_type::eof()) {
      *pptr() = static_cast<char>(ch);
      pbump(1);
    }
    return ch == traits_type::eof() ? 0 : ch;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    // Large payloads (packed edge arrays) skip the buffer entirely.
    if (n >= static_cast<std::streamsize>(buffer_.size())) {
      flush_to_fd();
      write_all(fd_, s, static_cast<std::size_t>(n), path_);
      return n;
    }
    if (epptr() - pptr() < n) flush_to_fd();
    std::memcpy(pptr(), s, static_cast<std::size_t>(n));
    pbump(static_cast<int>(n));
    return n;
  }

  int sync() override {
    flush_to_fd();
    return 0;
  }

 private:
  std::filesystem::path path_;
  std::vector<char> buffer_;
  int fd_ = -1;
};

OutStream::OutStream(const std::filesystem::path& p, Mode mode)
    : std::ostream(nullptr), buf_(new Buf(p, mode)) {
  rdbuf(buf_);
  // Rethrow the typed exception a streambuf flush raises instead of
  // swallowing it into badbit: callers see ResourceExhaustedError at the
  // `<<` that hit ENOSPC, not a silent truncation at close.
  exceptions(std::ios::badbit);
}

OutStream::~OutStream() {
  try {
    if (buf_ != nullptr && buf_->open()) buf_->flush_to_fd();
  } catch (...) {
    // Destructors must not throw; durable writers call close() and get
    // the typed error there.
  }
  // rdbuf(nullptr) clear()s to badbit; the mask must be empty first or
  // the detach itself would throw out of this destructor.
  exceptions(std::ios::goodbit);
  rdbuf(nullptr);
  delete buf_;
}

void OutStream::sync_now() { buf_->fsync_now(); }

void OutStream::close() {
  buf_->flush_to_fd();
  buf_->close_fd();
}

const std::filesystem::path& OutStream::path() const { return buf_->path(); }

}  // namespace epgs::fsx
