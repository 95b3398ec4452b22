#include "harness/records.hpp"

#include <cstdio>

#include "core/error.hpp"
#include "core/text_scan.hpp"

namespace epgs::harness {
namespace {

constexpr std::size_t kCsvColumns = 14;
// The pre-checkpoint record format: no attempts / resumed_from columns.
// Still parsed so archived result files and journals stay replayable.
constexpr std::size_t kLegacyCsvColumns = 12;

const CsvRow& csv_header() {
  // attempts / resumed_from trail outcome so every legacy column keeps
  // its index (scripts address these columns positionally).
  static const CsvRow header{"dataset",  "system", "algorithm", "threads",
                             "trial",    "phase",  "seconds",   "edges",
                             "vupdates", "bytes",  "iterations", "outcome",
                             "attempts", "resumed_from"};
  return header;
}

const CsvRow& legacy_csv_header() {
  static const CsvRow header(csv_header().begin(),
                             csv_header().begin() + kLegacyCsvColumns);
  return header;
}

/// An empty seconds or counter field reads as 0; anything else is strict.
template <typename T>
T number_or_zero(const std::string& s, std::string_view col) {
  return s.empty() ? T{} : text::require_number<T>(s, "CSV", col);
}

}  // namespace

std::vector<double> ExperimentResult::seconds_of(
    std::string_view system, std::string_view phase,
    std::string_view algorithm) const {
  std::vector<double> out;
  for (const auto& r : records) {
    if (r.outcome != Outcome::kSuccess) continue;
    if (r.system != system || r.phase != phase) continue;
    if (!algorithm.empty() && r.algorithm != algorithm) continue;
    out.push_back(r.seconds);
  }
  return out;
}

std::vector<double> ExperimentResult::iterations_of(
    std::string_view system, std::string_view algorithm) const {
  std::vector<double> out;
  for (const auto& r : records) {
    if (r.outcome != Outcome::kSuccess) continue;
    if (r.system != system || r.algorithm != algorithm) continue;
    const auto it = r.extra.find("iterations");
    if (it != r.extra.end()) {
      out.push_back(text::require_number<double>(it->second, "record",
                                                 "iterations"));
    }
  }
  return out;
}

CsvRow record_to_csv_row(const RunRecord& r) {
  const auto field = [&](const char* key) {
    const auto it = r.extra.find(key);
    return it == r.extra.end() ? std::string() : it->second;
  };
  char secs[32];
  std::snprintf(secs, sizeof secs, "%.9g", r.seconds);
  return {r.dataset,
          r.system,
          r.algorithm,
          std::to_string(r.threads),
          std::to_string(r.trial),
          r.phase,
          secs,
          std::to_string(r.work.edges_processed),
          std::to_string(r.work.vertex_updates),
          std::to_string(r.work.bytes_touched),
          field("iterations"),
          std::string(outcome_name(r.outcome)),
          field("attempts"),
          field("resumed_from_iter")};
}

RunRecord record_from_csv_row(const CsvRow& row) {
  EPGS_CHECK(row.size() == kCsvColumns || row.size() == kLegacyCsvColumns,
             "CSV row has " + std::to_string(row.size()) +
                 " fields, expected " + std::to_string(kCsvColumns) +
                 " (or the legacy " + std::to_string(kLegacyCsvColumns) +
                 ")");
  RunRecord r;
  r.dataset = row[0];
  r.system = row[1];
  r.algorithm = row[2];
  r.threads = text::require_number<int>(row[3], "CSV", "threads");
  r.trial = text::require_number<int>(row[4], "CSV", "trial");
  r.phase = row[5];
  r.seconds = number_or_zero<double>(row[6], "seconds");
  r.work.edges_processed = number_or_zero<std::uint64_t>(row[7], "edges");
  r.work.vertex_updates = number_or_zero<std::uint64_t>(row[8], "vupdates");
  r.work.bytes_touched = number_or_zero<std::uint64_t>(row[9], "bytes");
  if (!row[10].empty()) r.extra["iterations"] = row[10];
  r.outcome = outcome_from_name(row[11]);
  if (row.size() == kCsvColumns) {
    if (!row[12].empty()) r.extra["attempts"] = row[12];
    if (!row[13].empty()) r.extra["resumed_from_iter"] = row[13];
  }
  return r;
}

std::string records_to_csv(const std::vector<RunRecord>& records) {
  std::vector<CsvRow> rows;
  rows.push_back(csv_header());
  for (const auto& r : records) rows.push_back(record_to_csv_row(r));
  return to_csv(rows);
}

std::string records_to_stripped_csv(const std::vector<RunRecord>& records) {
  // The volatile CSV columns (0-based): seconds(6), attempts(12),
  // resumed_from(13). Erased highest-first so earlier indices stay valid.
  constexpr std::size_t kVolatileCols[] = {13, 12, 6};
  std::vector<CsvRow> rows;
  rows.reserve(records.size());
  for (const RunRecord& r : records) {
    CsvRow row = record_to_csv_row(r);
    for (const std::size_t col : kVolatileCols) {
      row.erase(row.begin() + static_cast<std::ptrdiff_t>(col));
    }
    rows.push_back(std::move(row));
  }
  return to_csv(rows);
}

std::vector<RunRecord> records_from_csv(const std::string& csv) {
  const auto rows = parse_csv(csv);
  EPGS_CHECK(!rows.empty(), "empty CSV");
  EPGS_CHECK(rows[0] == csv_header() || rows[0] == legacy_csv_header(),
             "CSV header does not match the phase-4 record format");
  std::vector<RunRecord> records;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    records.push_back(record_from_csv_row(rows[i]));
  }
  return records;
}

}  // namespace epgs::harness
