#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "core/text_scan.hpp"

namespace epgs::serve {
namespace {

constexpr std::string_view kMagic = "EPGQ";
constexpr std::size_t kLenDigits = 8;
constexpr std::size_t kHeaderBytes = 4 + kLenDigits;

/// Strict hex parse of exactly `s.size()` digits. Canonical lowercase
/// only (from_chars would accept "0000000A", but a sender emitting
/// uppercase framed the request with different code than ours — reject
/// rather than guess at the rest of its dialect).
std::optional<std::uint64_t> parse_hex(std::string_view s) {
  for (const char c : s) {
    const bool lower_hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!lower_hex) return std::nullopt;
  }
  std::uint64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(s.data(), s.data() + s.size(), v, 16);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return std::nullopt;
  return v;
}

/// A numeric request field. A bad value is a request-level ProtocolError,
/// so the connection survives it.
template <typename T>
T value_of(std::string_view key, std::string_view s) {
  if (const std::optional<T> v = text::parse_number<T>(s)) return *v;
  throw ProtocolError("bad value for '" + std::string(key) + "': '" +
                      std::string(s) + "'");
}

bool parse_bool_field(std::string_view key, std::string_view s) {
  if (s == "0") return false;
  if (s == "1") return true;
  throw ProtocolError("bad value for '" + std::string(key) +
                      "': expected 0 or 1, got '" + std::string(s) + "'");
}

/// Read exactly `n` bytes; returns bytes actually read (short on EOF).
std::size_t read_fully(int fd, char* buf, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket read failed: ") +
                    std::strerror(errno));
    }
    if (r == 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

struct FdGuard {
  int fd = -1;
  ~FdGuard() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

std::string encode_frame(std::string_view payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw ProtocolError("frame payload exceeds " +
                        std::to_string(kMaxFrameBytes) + " bytes");
  }
  char hex[kLenDigits + 1];
  std::snprintf(hex, sizeof hex, "%08zx", payload.size());
  std::string out;
  out.reserve(kHeaderBytes + payload.size());
  out.append(kMagic);
  out.append(hex, kLenDigits);
  out.append(payload);
  return out;
}

void write_frame(int fd, std::string_view payload) {
  const std::string frame = encode_frame(payload);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t w =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw IoError(std::string("socket write failed: ") +
                    std::strerror(errno));
    }
    sent += static_cast<std::size_t>(w);
  }
}

std::optional<std::string> read_frame(int fd) {
  char header[kHeaderBytes];
  const std::size_t got = read_fully(fd, header, kHeaderBytes);
  if (got == 0) return std::nullopt;  // clean EOF at a frame boundary
  if (got < kHeaderBytes) {
    throw ProtocolError("truncated frame header: got " +
                        std::to_string(got) + " of " +
                        std::to_string(kHeaderBytes) + " bytes");
  }
  if (std::string_view(header, 4) != kMagic) {
    throw ProtocolError("bad frame magic (expected EPGQ)");
  }
  const auto len = parse_hex(std::string_view(header + 4, kLenDigits));
  if (!len) {
    throw ProtocolError("non-hex frame length prefix");
  }
  if (*len > kMaxFrameBytes) {
    throw ProtocolError("frame length " + std::to_string(*len) +
                        " exceeds the " + std::to_string(kMaxFrameBytes) +
                        "-byte cap");
  }
  std::string payload(*len, '\0');
  const std::size_t body = read_fully(fd, payload.data(), payload.size());
  if (body < payload.size()) {
    throw ProtocolError("truncated frame payload: got " +
                        std::to_string(body) + " of " +
                        std::to_string(*len) + " bytes");
  }
  return payload;
}

Request parse_request(std::string_view payload) {
  // One line only; a stray newline means the sender framed garbage.
  if (payload.find('\n') != std::string_view::npos) {
    throw ProtocolError("request payload must be a single line");
  }
  std::string_view rest = payload;
  const std::string verb(text::next_token(rest));
  Request req;
  if (verb == "ping") {
    req.verb = Verb::kPing;
  } else if (verb == "stats") {
    req.verb = Verb::kStats;
  } else if (verb == "shutdown") {
    req.verb = Verb::kShutdown;
  } else if (verb == "run") {
    req.verb = Verb::kRun;
  } else {
    throw ProtocolError("unknown request verb '" + verb + "'");
  }

  std::map<std::string, std::string> kv;
  for (std::string_view tok = text::next_token(rest); !tok.empty();
       tok = text::next_token(rest)) {
    const auto eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      throw ProtocolError("expected key=value, got '" + std::string(tok) +
                          "'");
    }
    const std::string key(tok.substr(0, eq));
    if (!kv.emplace(key, tok.substr(eq + 1)).second) {
      throw ProtocolError("duplicate key '" + key + "'");
    }
  }
  if (req.verb != Verb::kRun) {
    if (!kv.empty()) {
      throw ProtocolError("verb '" + verb + "' takes no arguments");
    }
    return req;
  }

  bool have_system = false;
  bool have_algorithm = false;
  for (const auto& [key, val] : kv) {
    if (key == "system") {
      req.system = val;
      have_system = true;
    } else if (key == "algorithm") {
      try {
        req.algorithm = harness::algorithm_from_name(val);
      } catch (const EpgsError& e) {
        throw ProtocolError(e.what());
      }
      have_algorithm = true;
    } else if (key == "roots") {
      req.roots = value_of<int>(key, val);
    } else if (key == "threads") {
      req.threads = value_of<int>(key, val);
    } else if (key == "deadline_ms") {
      req.deadline_ms = value_of<std::int64_t>(key, val);
    } else if (key == "kind") {
      using Kind = harness::GraphSpec::Kind;
      if (val == "kron") {
        req.graph.kind = Kind::kKronecker;
      } else if (val == "patents") {
        req.graph.kind = Kind::kPatentsLike;
      } else if (val == "dota") {
        req.graph.kind = Kind::kDotaLike;
      } else if (val == "snap") {
        req.graph.kind = Kind::kSnapFile;
      } else {
        throw ProtocolError("unknown kind '" + val + "'");
      }
    } else if (key == "graph") {
      req.graph.path = val;
    } else if (key == "scale") {
      req.graph.scale = value_of<int>(key, val);
    } else if (key == "edgefactor") {
      req.graph.edgefactor = value_of<int>(key, val);
    } else if (key == "fraction") {
      req.graph.fraction = value_of<double>(key, val);
    } else if (key == "seed") {
      req.graph.seed = value_of<std::uint64_t>(key, val);
    } else if (key == "symmetrize") {
      req.graph.symmetrize = parse_bool_field(key, val);
    } else if (key == "dedupe") {
      req.graph.deduplicate = parse_bool_field(key, val);
    } else if (key == "weights") {
      req.graph.add_weights = parse_bool_field(key, val);
    } else if (key == "max_weight") {
      req.graph.max_weight = value_of<std::uint32_t>(key, val);
    } else {
      throw ProtocolError("unknown key '" + key + "'");
    }
  }
  if (!have_system) throw ProtocolError("run requires system=<name>");
  if (!have_algorithm) {
    throw ProtocolError("run requires algorithm=<name>");
  }
  if (req.graph.kind == harness::GraphSpec::Kind::kSnapFile &&
      req.graph.path.empty()) {
    throw ProtocolError("kind=snap requires graph=<path>");
  }
  if (req.roots < 1) throw ProtocolError("roots must be >= 1");
  if (req.algorithm == harness::Algorithm::kSssp) {
    req.graph.add_weights = true;  // mirror cmd_run's SSSP convenience
  }
  return req;
}

std::string render_request(const Request& req) {
  switch (req.verb) {
    case Verb::kPing: return "ping";
    case Verb::kStats: return "stats";
    case Verb::kShutdown: return "shutdown";
    case Verb::kRun: break;
  }
  using Kind = harness::GraphSpec::Kind;
  std::ostringstream os;
  os << "run system=" << req.system
     << " algorithm=" << harness::algorithm_name(req.algorithm);
  os << " kind=";
  switch (req.graph.kind) {
    case Kind::kKronecker: os << "kron"; break;
    case Kind::kPatentsLike: os << "patents"; break;
    case Kind::kDotaLike: os << "dota"; break;
    case Kind::kSnapFile: os << "snap graph=" << req.graph.path; break;
  }
  os << " scale=" << req.graph.scale
     << " edgefactor=" << req.graph.edgefactor;
  os.precision(17);
  os << " fraction=" << req.graph.fraction << " seed=" << req.graph.seed
     << " symmetrize=" << (req.graph.symmetrize ? 1 : 0)
     << " dedupe=" << (req.graph.deduplicate ? 1 : 0)
     << " weights=" << (req.graph.add_weights ? 1 : 0)
     << " max_weight=" << req.graph.max_weight << " roots=" << req.roots
     << " threads=" << req.threads;
  if (req.deadline_ms > 0) os << " deadline_ms=" << req.deadline_ms;
  return os.str();
}

std::string_view reply_kind_name(ReplyKind k) {
  switch (k) {
    case ReplyKind::kOk: return "ok";
    case ReplyKind::kProtocol: return "protocol";
    case ReplyKind::kOverloaded: return "overloaded";
    case ReplyKind::kDeadline: return "deadline";
    case ReplyKind::kConfig: return "config";
    case ReplyKind::kShutdown: return "shutdown";
    case ReplyKind::kInternal: return "internal";
  }
  return "?";
}

std::string render_reply(const Reply& reply) {
  std::string out;
  if (reply.kind == ReplyKind::kOk) {
    out = "ok " + reply.verb;
    if (!reply.body.empty()) {
      out += '\n';
      out += reply.body;
    }
  } else {
    out = "error ";
    out += reply_kind_name(reply.kind);
    out += ' ';
    out += reply.body;
  }
  return out;
}

Reply parse_reply(std::string_view payload) {
  const auto nl = payload.find('\n');
  const std::string_view status =
      nl == std::string_view::npos ? payload : payload.substr(0, nl);
  const std::string_view body =
      nl == std::string_view::npos ? std::string_view{}
                                   : payload.substr(nl + 1);
  Reply reply;
  if (status.substr(0, 3) == "ok ") {
    reply.kind = ReplyKind::kOk;
    reply.verb = std::string(status.substr(3));
    reply.body = std::string(body);
    return reply;
  }
  if (status.substr(0, 6) == "error ") {
    const std::string_view rest = status.substr(6);
    const auto sp = rest.find(' ');
    const std::string_view kind =
        sp == std::string_view::npos ? rest : rest.substr(0, sp);
    for (const ReplyKind k :
         {ReplyKind::kProtocol, ReplyKind::kOverloaded, ReplyKind::kDeadline,
          ReplyKind::kConfig, ReplyKind::kShutdown, ReplyKind::kInternal}) {
      if (reply_kind_name(k) == kind) {
        reply.kind = k;
        reply.body = sp == std::string_view::npos
                         ? std::string(body)
                         : std::string(rest.substr(sp + 1));
        if (!body.empty() && sp != std::string_view::npos) {
          reply.body += '\n';
          reply.body += std::string(body);
        }
        return reply;
      }
    }
    throw ProtocolError("unknown reply error kind '" + std::string(kind) +
                        "'");
  }
  throw ProtocolError("malformed reply status line");
}

Reply query_server(const std::string& socket_path,
                   std::string_view request_payload) {
  FdGuard fd{::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)};
  if (fd.fd < 0) {
    throw IoError(std::string("socket() failed: ") + std::strerror(errno));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw IoError("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd.fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    throw IoError("cannot connect to " + socket_path + ": " +
                  std::strerror(errno));
  }
  write_frame(fd.fd, request_payload);
  const auto reply = read_frame(fd.fd);
  if (!reply) {
    throw IoError("server closed the connection without replying");
  }
  return parse_reply(*reply);
}

}  // namespace epgs::serve
