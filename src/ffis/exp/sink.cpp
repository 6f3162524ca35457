#include "ffis/exp/sink.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <type_traits>

#include "ffis/analysis/stats.hpp"
#include "ffis/util/strfmt.hpp"

namespace ffis::exp {

namespace {

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Splits one CSV record, honoring RFC-4180 quoting.
std::vector<std::string> split_csv_record(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          field += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        field += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else {
      field += c;
    }
  }
  if (quoted) throw std::invalid_argument("CSV record has an unterminated quote: " + line);
  fields.push_back(std::move(field));
  return fields;
}

/// Visits every column of a result record in file order: f(name, field,
/// required).  `field` is a typed lvalue (text, integer, ms or flag); the
/// counter columns come from the run-counter table.  Required columns
/// (index..crash, error) must be in every file; any other column — each run
/// counter included — reads as 0/false/empty when a file lacks it, which is
/// what keeps files written before a column existed loadable.
template <class Row, class F>
void visit_columns(Row& row, F&& f) {
  f("index", row.index, true);
  f("label", row.label, true);
  f("application", row.application, true);
  f("fault", row.fault, true);
  f("stage", row.stage, true);
  f("runs", row.runs, true);
  f("seed", row.seed, true);
  f("primitive_count", row.primitive_count, true);
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    const auto outcome = static_cast<core::Outcome>(o);
    std::uint64_t count = row.tally.count(outcome);
    f(std::string(core::outcome_name(outcome)).c_str(), count, true);
    // Readers visit a fresh row, whose tally starts empty.
    if constexpr (!std::is_const_v<Row>) row.tally.add(outcome, count);
  }
  f("faults_not_fired", row.faults_not_fired, false);
  row.for_each_counter([&](const char* name, auto& value) { f(name, value, false); });
  f("golden_cached", row.golden_cached, false);
  f("checkpointed", row.checkpointed, false);
  f("checkpoint_loaded", row.checkpoint_loaded, false);
  f("worker_id", row.worker_id, false);
  f("error", row.error, true);
}

std::string json_quote(const std::string& s) { return '"' + json_escape(s) + '"'; }

/// How a file format spells text and flags; numbers read and write alike.
struct Format {
  std::string (*quote)(const std::string&);
  const char* yes;
  const char* no;
};
constexpr Format kCsv{csv_escape, "1", "0"};
constexpr Format kJsonl{json_quote, "true", "false"};

std::string field_text(const std::string& v, const Format& f) { return f.quote(v); }
std::string field_text(bool v, const Format& f) { return v ? f.yes : f.no; }
std::string field_text(std::uint64_t v, const Format&) { return std::to_string(v); }
std::string field_text(int v, const Format&) { return std::to_string(v); }
/// Milliseconds with fixed sub-microsecond precision — enough for phase
/// timers, stable across locales and round-trippable by parse_field.
std::string field_text(double ms, const Format&) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.4f", ms);
  return buf;
}

[[noreturn]] void bad_value(const char* name, const std::string& text) {
  throw std::invalid_argument(std::string("bad ") + name + " value: '" + text + "'");
}

void parse_field(const std::string& text, std::string& value, const char*, const Format&) {
  value = text;
}
void parse_field(const std::string& text, bool& value, const char* name, const Format& f) {
  if (text != f.yes && text != f.no) bad_value(name, text);
  value = text == f.yes;
}
void parse_field(const std::string& text, std::uint64_t& value, const char* name,
                 const Format&) {
  const auto v = util::parse_u64(text);
  if (!v) bad_value(name, text);
  value = *v;
}
void parse_field(const std::string& text, int& value, const char* name, const Format&) {
  const auto v = util::parse_int(text);
  if (!v) bad_value(name, text);
  value = *v;
}
void parse_field(const std::string& text, double& value, const char* name, const Format&) {
  std::size_t consumed = 0;
  try {
    value = std::stod(text, &consumed);
  } catch (const std::exception&) {
    bad_value(name, text);
  }
  if (consumed != text.size()) bad_value(name, text);
}

/// Every column name, in file order.
const std::vector<std::string>& column_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    const SinkRow row;
    visit_columns(row, [&](const char* name, const auto&, bool) { out.emplace_back(name); });
    return out;
  }();
  return names;
}

/// One record's column texts, by column name.
using Record = std::map<std::string, std::string>;

SinkRow row_from(const Record& record, const Format& format) {
  SinkRow row;
  visit_columns(row, [&](const char* name, auto& value, bool required) {
    if (const auto it = record.find(name); it != record.end()) {
      parse_field(it->second, value, name, format);
    } else if (required) {
      throw std::invalid_argument(std::string("result record lacks the '") + name +
                                  "' column");
    }
  });
  return row;
}

}  // namespace

SinkRow to_sink_row(const CellResult& result) {
  SinkRow row;
  static_cast<RunCounters&>(row) = result;
  static_cast<CellFacts&>(row) = result;
  row.index = result.index;
  row.label = result.cell.label;
  row.application = result.cell.app != nullptr ? result.cell.app->name() : "";
  row.fault = result.cell.fault;
  row.stage = result.cell.stage;
  row.runs = result.runs_completed;
  row.seed = result.cell.seed;
  row.tally = result.tally;
  row.faults_not_fired = result.faults_not_fired;
  for (const std::uint32_t id : result.worker_ids) {
    if (!row.worker_id.empty()) row.worker_id += '+';
    row.worker_id += std::to_string(id);
  }
  return row;
}

// --- ConsoleTableSink --------------------------------------------------------

void ConsoleTableSink::begin(const ExperimentPlan& plan) {
  (void)plan;
  header();
}

void ConsoleTableSink::header() {
  std::fprintf(out_, "%s\n", analysis::outcome_row_header().c_str());
}

void ConsoleTableSink::replay(const ExperimentReport& report) {
  header();
  for (const auto& result : report.cells) cell(result);
  end(report);
}

void ConsoleTableSink::cell(const CellResult& result) {
  if (!result.error.empty()) {
    std::fprintf(out_, "%-12s FAILED: %s\n", result.cell.label.c_str(),
                 result.error.c_str());
    return;
  }
  std::fprintf(out_, "%s", analysis::format_outcome_row(result.cell.label,
                                                        result.tally).c_str());
  if (show_primitive_count_) {
    std::fprintf(out_, "   (%llu primitive executions)",
                 static_cast<unsigned long long>(result.primitive_count));
  }
  std::fprintf(out_, "\n");
  std::fflush(out_);
}

void ConsoleTableSink::end(const ExperimentReport& report) {
  std::fprintf(out_, "[%zu cells, %llu runs; %llu golden execution%s, %llu served "
                     "from cache; %llu checkpoint capture%s (%.1f MiB held), "
                     "%llu reused; %llu analys%s skipped by extent diff, %llu "
                     "run%s replayed, %llu run%s synthesized, %llu run%s resumed "
                     "late%s]\n",
               report.cells.size(), static_cast<unsigned long long>(report.total_runs),
               static_cast<unsigned long long>(report.golden_executions),
               report.golden_executions == 1 ? "" : "s",
               static_cast<unsigned long long>(report.golden_cache_hits),
               static_cast<unsigned long long>(report.checkpoint_builds),
               report.checkpoint_builds == 1 ? "" : "s",
               static_cast<double>(report.checkpoint_bytes) / (1024.0 * 1024.0),
               static_cast<unsigned long long>(report.checkpoint_cache_hits),
               static_cast<unsigned long long>(report.analyze_skipped),
               report.analyze_skipped == 1 ? "is" : "es",
               static_cast<unsigned long long>(report.runs_replayed),
               report.runs_replayed == 1 ? "" : "s",
               static_cast<unsigned long long>(report.runs_synthesized),
               report.runs_synthesized == 1 ? "" : "s",
               static_cast<unsigned long long>(report.runs_resumed_late),
               report.runs_resumed_late == 1 ? "" : "s",
               report.cancelled ? "; CANCELLED" : "");
  // Media-layer summary, only when a block device actually corrupted or
  // rejected something.  Splits the Detected tally by *how* the failure
  // surfaced: detected_crc counts runs whose scrub rejected a sector read,
  // detected_io_error the rest (reported syscall errors and analysis-visible
  // deviations).
  if (report.sectors_faulted + report.crc_detected > 0) {
    std::uint64_t detected_total = 0;
    for (const auto& cell : report.cells) {
      detected_total += cell.tally.count(core::Outcome::Detected);
    }
    const std::uint64_t detected_io_error =
        detected_total >= report.detected_crc ? detected_total - report.detected_crc : 0;
    std::fprintf(out_, "[media: %llu sector%s faulted, %llu scrub rejection%s; "
                       "detected split: %llu detected_io_error + %llu detected_crc]\n",
                 static_cast<unsigned long long>(report.sectors_faulted),
                 report.sectors_faulted == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.crc_detected),
                 report.crc_detected == 1 ? "" : "s",
                 static_cast<unsigned long long>(detected_io_error),
                 static_cast<unsigned long long>(report.detected_crc));
  }
  // Persistent-store traffic, only when a checkpoint_dir was in play.
  if (report.checkpoints_loaded + report.checkpoints_persisted + report.goldens_loaded +
          report.goldens_persisted >
      0) {
    std::fprintf(out_, "[checkpoint store: %llu checkpoint%s + %llu golden%s loaded, "
                       "%llu + %llu persisted]\n",
                 static_cast<unsigned long long>(report.checkpoints_loaded),
                 report.checkpoints_loaded == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.goldens_loaded),
                 report.goldens_loaded == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.checkpoints_persisted),
                 static_cast<unsigned long long>(report.goldens_persisted));
    std::fprintf(out_, "[store cache: %llu hit%s, %llu miss%s, %llu eviction%s "
                       "(%llu bytes), %llu gc run%s]\n",
                 static_cast<unsigned long long>(report.store_hits),
                 report.store_hits == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.store_misses),
                 report.store_misses == 1 ? "" : "es",
                 static_cast<unsigned long long>(report.store_evictions),
                 report.store_evictions == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.store_bytes_evicted),
                 static_cast<unsigned long long>(report.store_gc_runs),
                 report.store_gc_runs == 1 ? "" : "s");
  }
  // Fleet summary, only for distributed (dist::Coordinator) campaigns.  The
  // CI gates grep for "units re-granted" and "replayed from journal", so
  // keep the phrasing stable and only append to this line.
  if (report.workers_connected > 0) {
    std::fprintf(out_, "[distributed: %llu worker%s connected, %llu unit%s re-granted, "
                       "%llu replayed from journal, %llu reconnect%s, "
                       "%llu heartbeat timeout%s]\n",
                 static_cast<unsigned long long>(report.workers_connected),
                 report.workers_connected == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.units_regranted),
                 report.units_regranted == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.units_replayed_from_journal),
                 static_cast<unsigned long long>(report.worker_reconnects),
                 report.worker_reconnects == 1 ? "" : "s",
                 static_cast<unsigned long long>(report.heartbeat_timeouts),
                 report.heartbeat_timeouts == 1 ? "" : "s");
  }
}

// --- CsvSink -----------------------------------------------------------------

const char* CsvSink::header() {
  static const std::string header = [] {
    std::string out;
    for (const std::string& name : column_names()) out += (out.empty() ? "" : ",") + name;
    return out;
  }();
  return header.c_str();
}

void CsvSink::begin(const ExperimentPlan& plan) {
  (void)plan;
  out_ << header() << '\n';
}

void CsvSink::cell(const CellResult& result) {
  const SinkRow row = to_sink_row(result);
  const char* sep = "";
  visit_columns(row, [&](const char*, const auto& value, bool) {
    out_ << sep << field_text(value, kCsv);
    sep = ",";
  });
  out_ << '\n';
}

void CsvSink::end(const ExperimentReport& report) {
  (void)report;
  out_.flush();
}

// --- JsonlSink ---------------------------------------------------------------

void JsonlSink::cell(const CellResult& result) {
  const SinkRow row = to_sink_row(result);
  char sep = '{';
  visit_columns(row, [&](const char* name, const auto& value, bool) {
    out_ << sep << '"' << name << "\":" << field_text(value, kJsonl);
    sep = ',';
  });
  out_ << "}\n";
}

void JsonlSink::end(const ExperimentReport& report) {
  (void)report;
  out_.flush();
}

// --- MultiSink ---------------------------------------------------------------

void MultiSink::begin(const ExperimentPlan& plan) {
  for (auto* s : sinks_) s->begin(plan);
}

void MultiSink::cell(const CellResult& result) {
  for (auto* s : sinks_) s->cell(result);
}

void MultiSink::end(const ExperimentReport& report) {
  for (auto* s : sinks_) s->end(report);
}

// --- readers -----------------------------------------------------------------

namespace {

/// Minimal parser for the flat JSON objects JsonlSink emits: string, number
/// and boolean values only, no nesting.  Values are kept as text and checked
/// when row_from reads them by key.
class FlatJsonObject {
 public:
  explicit FlatJsonObject(const std::string& line) {
    std::size_t i = 0;
    skip_ws(line, i);
    expect(line, i, '{');
    skip_ws(line, i);
    if (i < line.size() && line[i] == '}') return;
    for (;;) {
      skip_ws(line, i);
      const std::string key = parse_string(line, i, "");
      skip_ws(line, i);
      expect(line, i, ':');
      skip_ws(line, i);
      values_[key] = parse_value(line, i, key);
      skip_ws(line, i);
      if (i >= line.size()) throw std::invalid_argument("unterminated JSON object");
      if (line[i] == ',') {
        ++i;
        continue;
      }
      expect(line, i, '}');
      break;
    }
  }

  [[nodiscard]] const Record& record() const { return values_; }

 private:
  static void skip_ws(const std::string& s, std::size_t& i) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t')) ++i;
  }
  static void expect(const std::string& s, std::size_t& i, char c) {
    if (i >= s.size() || s[i] != c) {
      throw std::invalid_argument(std::string("expected '") + c + "' in JSONL record: " + s);
    }
    ++i;
  }
  /// `key` names the value being parsed (empty while parsing a key itself),
  /// for error messages.
  static std::string parse_string(const std::string& s, std::size_t& i,
                                  const std::string& key) {
    expect(s, i, '"');
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') {
        ++i;
        if (i >= s.size()) break;
        switch (s[i]) {
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned code = 0;
            const char* hex = s.data() + i + 1;
            if (s.size() - i <= 4 || std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
              throw std::invalid_argument(key.empty()
                                              ? std::string("bad \\u escape in a JSONL key")
                                              : "bad \\u escape in JSONL key '" + key + "'");
            }
            out += static_cast<char>(code);
            i += 4;
            break;
          }
          default: out += s[i];
        }
        ++i;
      } else {
        out += s[i++];
      }
    }
    expect(s, i, '"');
    return out;
  }
  static std::string parse_value(const std::string& s, std::size_t& i,
                                 const std::string& key) {
    if (i < s.size() && s[i] == '"') return parse_string(s, i, key);
    std::string out;
    while (i < s.size() && s[i] != ',' && s[i] != '}') out += s[i++];
    while (!out.empty() && (out.back() == ' ' || out.back() == '\t')) out.pop_back();
    return out;
  }

  Record values_;
};

/// True when `record` ends inside an open RFC-4180 quote — i.e. the logical
/// record continues on the next physical line (quoted fields may contain
/// newlines; CsvSink writes them for error messages).
bool record_is_open(const std::string& record) {
  bool quoted = false;
  for (std::size_t i = 0; i < record.size(); ++i) {
    if (record[i] != '"') continue;
    if (quoted && i + 1 < record.size() && record[i + 1] == '"') {
      ++i;  // escaped quote inside a quoted field
    } else {
      quoted = !quoted;
    }
  }
  return quoted;
}

}  // namespace

std::vector<SinkRow> read_csv_results(std::istream& in) {
  std::vector<SinkRow> rows;
  std::string line;
  std::string record;
  std::vector<std::string> header;
  while (std::getline(in, line)) {
    if (record.empty()) {
      if (line.empty() || line == "\r") continue;
      record = line;
    } else {
      record += '\n';
      record += line;
    }
    if (record_is_open(record)) continue;  // quoted newline: keep accumulating
    // CRLF tolerance: strip the line ending only at a record boundary, so a
    // quoted field containing "\r\n" keeps its carriage return.
    if (record.back() == '\r') record.pop_back();
    if (header.empty()) {
      // The header names the columns, in any order and from any sink
      // generation; columns it lacks read as 0 (see visit_columns).
      header = split_csv_record(record);
      const auto& known = column_names();
      Record zeros;
      for (const std::string& name : header) {
        if (std::find(known.begin(), known.end(), name) == known.end()) {
          throw std::invalid_argument("CSV header has an unknown column '" + name + "'");
        }
        if (!zeros.emplace(name, "0").second) {
          throw std::invalid_argument("CSV header repeats the column '" + name + "'");
        }
      }
      (void)row_from(zeros, kCsv);  // a header lacking a required column throws here
    } else {
      const std::vector<std::string> fields = split_csv_record(record);
      // A record whose field count disagrees with its own header is
      // truncation or corruption, never another layout.
      if (fields.size() != header.size()) {
        throw std::invalid_argument("CSV record has " + std::to_string(fields.size()) +
                                    " fields, expected " + std::to_string(header.size()));
      }
      Record columns;
      for (std::size_t i = 0; i < fields.size(); ++i) columns.emplace(header[i], fields[i]);
      rows.push_back(row_from(columns, kCsv));
    }
    record.clear();
  }
  if (!record.empty()) {
    throw std::invalid_argument("CSV document ends inside a quoted field");
  }
  if (header.empty()) throw std::invalid_argument("empty CSV document");
  return rows;
}

std::vector<SinkRow> read_jsonl_results(std::istream& in) {
  std::vector<SinkRow> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    rows.push_back(row_from(FlatJsonObject(line).record(), kJsonl));
  }
  return rows;
}

}  // namespace ffis::exp
