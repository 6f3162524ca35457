#pragma once
// Pluggable result sinks.  The engine streams CellResults in plan order as
// cells finish; sinks turn that stream into a console table, a CSV file, a
// JSON-lines file, or all of them at once (MultiSink).  Sink callbacks are
// invoked from engine worker threads but never concurrently — the engine
// serializes emission.
//
// CsvSink and JsonlSink have matching readers (read_csv_results /
// read_jsonl_results) so campaign grids written by one process can be
// post-processed by another without re-running anything.

#include <cstdio>
#include <iosfwd>
#include <string>
#include <vector>

#include "ffis/exp/result.hpp"

namespace ffis::exp {

class ResultSink {
 public:
  virtual ~ResultSink() = default;

  virtual void begin(const ExperimentPlan& plan) { (void)plan; }
  /// One finished cell.  Called exactly once per cell, in plan order.
  virtual void cell(const CellResult& result) = 0;
  virtual void end(const ExperimentReport& report) { (void)report; }
};

/// Swallows everything (Engine::run without an explicit sink).
class NullSink final : public ResultSink {
 public:
  void cell(const CellResult&) override {}
};

/// Figure-7-style console table: outcome percentages with 95 % Wilson error
/// bars per cell, plus a golden-cache summary at the end.
class ConsoleTableSink final : public ResultSink {
 public:
  explicit ConsoleTableSink(std::FILE* out = stdout, bool show_primitive_count = false)
      : out_(out), show_primitive_count_(show_primitive_count) {}

  void begin(const ExperimentPlan& plan) override;
  void cell(const CellResult& result) override;
  void end(const ExperimentReport& report) override;

 private:
  std::FILE* out_;
  bool show_primitive_count_;
};

/// One CSV row per cell.  Fields containing commas or quotes are quoted
/// RFC-4180 style.  The stream must outlive the sink's last callback.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}

  void begin(const ExperimentPlan& plan) override;
  void cell(const CellResult& result) override;
  void end(const ExperimentReport& report) override;

  static const char* header();

 private:
  std::ostream& out_;
};

/// One JSON object per line, same fields as the CSV.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(out) {}

  void cell(const CellResult& result) override;
  void end(const ExperimentReport& report) override;

 private:
  std::ostream& out_;
};

/// Fans every callback out to each child sink, in order.  Non-owning.
class MultiSink final : public ResultSink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<ResultSink*> sinks) : sinks_(std::move(sinks)) {}

  MultiSink& add(ResultSink& sink) {
    sinks_.push_back(&sink);
    return *this;
  }

  void begin(const ExperimentPlan& plan) override;
  void cell(const CellResult& result) override;
  void end(const ExperimentReport& report) override;

 private:
  std::vector<ResultSink*> sinks_;
};

/// What the file sinks persist about one cell (the parts of CellResult that
/// survive serialization): its identity and tally, every run counter, and
/// the preparation facts.
struct SinkRow : RunCounters {
  std::size_t index = 0;
  std::string label;
  std::string application;
  std::string fault;
  int stage = -1;
  std::uint64_t runs = 0;
  std::uint64_t seed = 0;
  std::uint64_t primitive_count = 0;
  core::OutcomeTally tally;
  std::uint64_t faults_not_fired = 0;
  bool golden_cached = false;
  bool checkpointed = false;
  /// Checkpoint served from the persistent store: this cell ran no
  /// fault-free prefix stages at all (EngineOptions::checkpoint_dir).
  bool checkpoint_loaded = false;
  /// Fleet members that contributed runs under a dist::Coordinator, as their
  /// sorted ids joined with '+' (e.g. "1+3"); empty for local execution.
  std::string worker_id;
  std::string error;
};

[[nodiscard]] SinkRow to_sink_row(const CellResult& result);

/// Parses a document produced by CsvSink.  The header maps columns by name,
/// so any column order and any sink generation reads; a column the header
/// lacks reads as 0/false/empty, except index..crash and error, which are
/// required.  Throws std::invalid_argument on malformed input: an unknown or
/// repeated column, a missing required one, or a record whose field count
/// differs from the header's.
[[nodiscard]] std::vector<SinkRow> read_csv_results(std::istream& in);

/// Parses a document produced by JsonlSink (one object per line), with the
/// same missing-column rules as read_csv_results; unknown keys are ignored.
[[nodiscard]] std::vector<SinkRow> read_jsonl_results(std::istream& in);

}  // namespace ffis::exp
