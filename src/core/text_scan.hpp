// Shared zero-allocation text scanning for every text reader.
//
// The graph formats (SNAP, MatrixMarket-like mtx, GraphBIG csv,
// PowerGraph tsv, Ligra adj) and the harness's own record formats
// (journal, chaos spec, crash report, EPGQ requests, phase log, child
// payload, EPGS_FS_FAULT, CLI options, records CSV) all turn tokens into
// numbers through parse_number below: no locale, no allocation per
// token, and a malformed token is an error, never a silently defaulted
// or truncated field.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/error.hpp"
#include "core/types.hpp"

namespace epgs::text {

[[nodiscard]] inline bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\r';
}

/// Iterate '\n'-separated lines of an in-memory document ('\r' is left on
/// the line; the token helpers treat it as whitespace). Tracks the
/// 1-based line number for error messages.
class LineScanner {
 public:
  explicit LineScanner(std::string_view txt) : text_(txt) {}

  /// Advance to the next line; false at end of input.
  bool next(std::string_view& line) {
    if (pos_ >= text_.size()) return false;
    ++line_no_;
    const std::size_t eol = text_.find('\n', pos_);
    if (eol == std::string_view::npos) {
      line = text_.substr(pos_);
      pos_ = text_.size();
    } else {
      line = text_.substr(pos_, eol - pos_);
      pos_ = eol + 1;
    }
    return true;
  }

  [[nodiscard]] std::size_t line_no() const { return line_no_; }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_no_ = 0;
};

/// Consume and return the next whitespace-delimited token (empty at end
/// of line).
[[nodiscard]] inline std::string_view next_token(std::string_view& line) {
  while (!line.empty() && is_space(line.front())) line.remove_prefix(1);
  std::size_t i = 0;
  while (i < line.size() && !is_space(line[i])) ++i;
  const std::string_view tok = line.substr(0, i);
  line.remove_prefix(i);
  return tok;
}

/// Consume and return the next field up to `delim` (for csv/tsv rows
/// where empty fields are meaningful). The delimiter is consumed.
[[nodiscard]] inline std::string_view next_field(std::string_view& line,
                                                 char delim) {
  const std::size_t i = line.find(delim);
  std::string_view field =
      line.substr(0, i == std::string_view::npos ? line.size() : i);
  line.remove_prefix(i == std::string_view::npos ? line.size() : i + 1);
  // A trailing '\r' on the last field of a CRLF line is not data.
  while (!field.empty() && field.back() == '\r') field.remove_suffix(1);
  return field;
}

/// Split on `delim`, keeping empty fields: "a||b" is three fields and ""
/// is one, so a doubled or trailing delimiter shows up as an empty field
/// instead of silently collapsing.
[[nodiscard]] inline std::vector<std::string_view> split(std::string_view s,
                                                         char delim) {
  std::vector<std::string_view> out;
  for (std::size_t i = s.find(delim); i != std::string_view::npos;
       i = s.find(delim)) {
    out.push_back(s.substr(0, i));
    s.remove_prefix(i + 1);
  }
  out.push_back(s);
  return out;
}

/// The one strict number parse: the whole token must be a T. Rejected:
/// an empty token, leading whitespace, a leading '+', trailing junk, '-'
/// on an unsigned type, and overflow. Floating point accepts the %.9g
/// and precision-17 stream forms the writers emit, "nan" and "inf"
/// included. No locale, no allocation.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view tok) {
  if (tok.empty()) return std::nullopt;
  T v{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, v);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return v;
}

/// "<context>: bad <what> '<tok>'", plus " on line N" when line_no > 0.
[[noreturn]] inline void fail(std::string_view context, std::string_view what,
                              std::string_view tok, std::size_t line_no = 0) {
  std::string msg = std::string(context) + ": bad " + std::string(what) +
                    " '" + std::string(tok) + "'";
  if (line_no > 0) msg += " on line " + std::to_string(line_no);
  throw ParseError(msg);
}

/// parse_number, or fail() naming the field.
template <typename T>
[[nodiscard]] T require_number(std::string_view tok, std::string_view context,
                               std::string_view what,
                               std::size_t line_no = 0) {
  if (const std::optional<T> v = parse_number<T>(tok)) return *v;
  fail(context, what, tok, line_no);
}

[[nodiscard]] inline std::uint64_t parse_u64(std::string_view tok,
                                             std::string_view context,
                                             std::string_view what,
                                             std::size_t line_no) {
  return require_number<std::uint64_t>(tok, context, what, line_no);
}

[[nodiscard]] inline double parse_double(std::string_view tok,
                                         std::string_view context,
                                         std::string_view what,
                                         std::size_t line_no) {
  return require_number<double>(tok, context, what, line_no);
}

/// Vertex-id parse with the 32-bit range check shared by every reader.
[[nodiscard]] inline vid_t parse_vid(std::string_view tok,
                                     std::string_view context,
                                     std::size_t line_no) {
  const std::uint64_t v = parse_u64(tok, context, "vertex id", line_no);
  EPGS_CHECK(v <= 0xFFFFFFFEULL, "vertex id exceeds 32-bit range");
  return static_cast<vid_t>(v);
}

}  // namespace epgs::text
