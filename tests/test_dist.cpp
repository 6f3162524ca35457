// Tests for the distributed campaign layer: plan sharding, the
// grant/re-grant scheduler state machine, plan fingerprints, handshake
// version-skew rejection, and in-process coordinator/worker end-to-end runs
// asserting the core contract — merged tallies bit-identical to a
// single-process exp::Engine at the same seeds, with and without a worker
// dying mid-unit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ffis/core/application.hpp"
#include "ffis/dist/coordinator.hpp"
#include "ffis/dist/journal.hpp"
#include "ffis/dist/protocol.hpp"
#include "ffis/dist/scheduler.hpp"
#include "ffis/dist/worker.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/exp/sink.hpp"
#include "ffis/net/faulty_socket.hpp"
#include "ffis/net/framing.hpp"
#include "ffis/net/socket.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/serialize.hpp"
#include "ffis/vfs/file_system.hpp"
#include "ffis/vfs/mem_fs.hpp"
#include "counter_testing.hpp"

namespace {

using namespace ffis;
using core::Outcome;
namespace stdfs = std::filesystem;

// --- fixtures ----------------------------------------------------------------

/// Same toy workload as test_exp: two stages of pseudo-random pwrites plus a
/// header file, classified by header integrity — produces a healthy mix of
/// Benign/Detected/Sdc outcomes under the bundled fault models.
class ToyApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "toy"; }

  void run(const core::RunContext& ctx) const override {
    vfs::write_text_file(ctx.fs, "/header", "MAGIC");
    vfs::File f(ctx.fs, "/data", vfs::OpenMode::Write);
    util::Rng rng(ctx.app_seed);
    std::uint64_t offset = 0;
    for (int stage = 1; stage <= 2; ++stage) {
      ctx.enter_stage(stage);
      for (std::size_t w = 0; w < 4; ++w) {
        util::Bytes chunk(64);
        for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
        offset += f.pwrite(chunk, offset);
      }
      ctx.leave_stage(stage);
    }
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    const std::string header = vfs::read_text_file(fs, "/header");
    if (header.size() != 5) throw std::runtime_error("bad header length");
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/data");
    result.metrics["header_ok"] = (header == "MAGIC") ? 1.0 : 0.0;
    return result;
  }

  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult& faulty) const override {
    return faulty.metric("header_ok") != 0.0 ? Outcome::Sdc : Outcome::Detected;
  }
};

/// Stage-resumable variant that opts into the persistent store, so the
/// distributed checkpoint path (shared --checkpoint-dir as the artifact
/// transfer plane) is exercised end to end.
class StagedToyApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "stoy"; }
  [[nodiscard]] int stage_count() const override { return 2; }

  void run(const core::RunContext& ctx) const override {
    run_prefix(ctx, 2);
    run_from(ctx, 2);
  }
  void run_prefix(const core::RunContext& ctx, int stage) const override {
    vfs::write_text_file(ctx.fs, "/header", "MAGIC");
    for (int s = 1; s < stage; ++s) do_stage(ctx, s);
  }
  void run_from(const core::RunContext& ctx, int stage) const override {
    for (int s = stage; s <= 2; ++s) do_stage(ctx, s);
  }

  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem& fs) const override {
    const std::string header = vfs::read_text_file(fs, "/header");
    core::AnalysisResult result;
    result.comparison_blob = vfs::read_file(fs, "/stage2");
    result.metrics["header_ok"] = (header == "MAGIC") ? 1.0 : 0.0;
    return result;
  }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult& faulty) const override {
    return faulty.metric("header_ok") != 0.0 ? Outcome::Sdc : Outcome::Detected;
  }

  [[nodiscard]] std::string state_fingerprint() const override { return "stoy/1"; }
  [[nodiscard]] util::Bytes serialize_state(std::uint64_t app_seed) const override {
    util::Bytes out;
    util::ByteWriter w(out);
    w.str("stoy-state");
    w.u64(app_seed);
    return out;
  }
  bool restore_state(std::uint64_t app_seed, util::ByteSpan state) const override {
    try {
      util::ByteReader r(state);
      return r.str() == "stoy-state" && r.u64() == app_seed;
    } catch (const std::exception&) {
      return false;
    }
  }

 private:
  void do_stage(const core::RunContext& ctx, int stage) const {
    ctx.enter_stage(stage);
    util::Rng rng(ctx.app_seed * 131 + static_cast<std::uint64_t>(stage));
    vfs::File f(ctx.fs, std::string("/stage") + std::to_string(stage),
                vfs::OpenMode::Write);
    util::Bytes chunk(192);
    for (auto& b : chunk) b = static_cast<std::byte>(rng() & 0xff);
    (void)f.pwrite(chunk, 0);
    ctx.leave_stage(stage);
  }
};

/// Performs no I/O, so every fault signature fails to profile and every cell
/// errors — exercises the CellInfo-error / abandon_cell path.
class SilentApp final : public core::Application {
 public:
  [[nodiscard]] std::string name() const override { return "silent"; }
  void run(const core::RunContext&) const override {}
  [[nodiscard]] core::AnalysisResult analyze(vfs::FileSystem&) const override {
    return {};
  }
  [[nodiscard]] Outcome classify(const core::AnalysisResult&,
                                 const core::AnalysisResult&) const override {
    return Outcome::Benign;
  }
};

/// Unique scratch directory per test, removed on teardown.
class StoreDir {
 public:
  explicit StoreDir(const std::string& tag)
      : path_((stdfs::temp_directory_path() /
               ("ffis-dist-test-" + tag + "-" + std::to_string(::getpid())))
                  .string()) {
    stdfs::remove_all(path_);
  }
  ~StoreDir() {
    std::error_code ec;
    stdfs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct DistOutcome {
  exp::ExperimentReport report;
  std::vector<dist::WorkerStats> workers;
};

/// Runs `plan` on an in-process coordinator with `n_workers` worker threads
/// sharing the plan by address; returns the merged report and per-worker
/// stats.
DistOutcome run_distributed(const exp::ExperimentPlan& plan, std::size_t n_workers,
                            dist::CoordinatorOptions options = {},
                            exp::ResultSink* sink = nullptr) {
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();

  DistOutcome out;
  out.workers.resize(n_workers);
  std::thread serve([&] {
    out.report = (sink != nullptr) ? coordinator.run(*sink) : coordinator.run();
  });
  std::vector<std::thread> fleet;
  fleet.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    fleet.emplace_back([&, i] {
      dist::WorkerOptions wo;
      wo.name = "test-worker-" + std::to_string(i);
      wo.plan = &plan;
      out.workers[i] = dist::run_worker("127.0.0.1", port, wo);
    });
  }
  for (auto& t : fleet) t.join();
  serve.join();
  return out;
}

/// Counter values that legitimately differ between two executions of one
/// plan are dropped: the wall-time timers, and arena traffic (per-thread
/// arenas warm up differently).  Every other table counter is compared.
std::vector<std::pair<std::string, double>> deterministic_counters(
    const exp::RunCounters& counters) {
  auto values = test_support::counter_values(counters);
  std::erase_if(values, [](const auto& entry) {
    return entry.first == "execute_ms" || entry.first == "analyze_ms" ||
           entry.first.rfind("arena_", 0) == 0;
  });
  return values;
}

/// Tally-level bit-identity between a distributed report and a local engine
/// report of the same plan: every deterministic field must match exactly.
void expect_reports_identical(const exp::ExperimentReport& dist_report,
                              const exp::ExperimentReport& engine_report) {
  ASSERT_EQ(dist_report.cells.size(), engine_report.cells.size());
  EXPECT_EQ(dist_report.total_runs, engine_report.total_runs);
  for (std::size_t i = 0; i < dist_report.cells.size(); ++i) {
    const auto& d = dist_report.cells[i];
    const auto& e = engine_report.cells[i];
    SCOPED_TRACE("cell " + std::to_string(i) + " (" + e.cell.label + ")");
    for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
      const auto outcome = static_cast<Outcome>(o);
      EXPECT_EQ(d.tally.count(outcome), e.tally.count(outcome))
          << "outcome " << core::outcome_name(outcome);
    }
    EXPECT_EQ(d.runs_completed, e.runs_completed);
    EXPECT_EQ(d.primitive_count, e.primitive_count);
    EXPECT_EQ(d.faults_not_fired, e.faults_not_fired);
    EXPECT_EQ(deterministic_counters(d), deterministic_counters(e));
    EXPECT_EQ(d.error, e.error);
  }
  EXPECT_EQ(deterministic_counters(dist_report), deterministic_counters(engine_report));
}

// --- shard_plan --------------------------------------------------------------

TEST(ShardPlan, PartitionsEveryCellExactly) {
  ToyApp a, b;
  const auto plan = exp::PlanBuilder()
                        .runs(10)
                        .seed(3)
                        .apps({&a, &b})
                        .faults({"BF", "DW"})
                        .build();
  const auto units = dist::shard_plan(plan, 4);
  // 4 cells x 10 runs at unit_runs=4 -> 3 units per cell (4+4+2).
  ASSERT_EQ(units.size(), 12u);
  std::vector<std::uint64_t> covered(plan.size(), 0);
  std::uint64_t expected_id = 0;
  std::uint64_t next_begin = 0;
  std::uint32_t current_cell = 0;
  for (const auto& u : units) {
    EXPECT_EQ(u.unit_id, expected_id++);
    if (u.cell_index != current_cell) {
      EXPECT_EQ(u.cell_index, current_cell + 1);  // plan order
      current_cell = u.cell_index;
      next_begin = 0;
    }
    EXPECT_EQ(u.run_begin, next_begin);  // contiguous, no gap or overlap
    EXPECT_LE(u.runs(), 4u);
    EXPECT_GT(u.runs(), 0u);
    next_begin = u.run_end;
    covered[u.cell_index] += u.runs();
  }
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(covered[i], plan.cells()[i].runs);
  }
}

TEST(ShardPlan, OneUnitWhenUnitRunsExceedsCell) {
  ToyApp a;
  const auto plan = exp::PlanBuilder().runs(5).apps({&a}).faults({"BF"}).build();
  const auto units = dist::shard_plan(plan, 1000);
  ASSERT_EQ(units.size(), 1u);
  EXPECT_EQ(units[0].run_begin, 0u);
  EXPECT_EQ(units[0].run_end, 5u);
}

TEST(ShardPlan, RejectsZeroUnitRuns) {
  ToyApp a;
  const auto plan = exp::PlanBuilder().runs(5).apps({&a}).faults({"BF"}).build();
  EXPECT_THROW((void)dist::shard_plan(plan, 0), std::invalid_argument);
}

// --- UnitScheduler -----------------------------------------------------------

std::vector<dist::WorkUnit> make_units(std::size_t n) {
  std::vector<dist::WorkUnit> units(n);
  for (std::size_t i = 0; i < n; ++i) {
    units[i].unit_id = i;
    units[i].cell_index = static_cast<std::uint32_t>(i / 2);
    units[i].run_begin = (i % 2) * 8;
    units[i].run_end = units[i].run_begin + 8;
  }
  return units;
}

TEST(UnitScheduler, GrantsInPlanOrderAndCompletes) {
  dist::UnitScheduler scheduler(make_units(4));
  for (std::uint64_t i = 0; i < 4; ++i) {
    const auto unit = scheduler.grant(/*worker_id=*/1, /*now_ms=*/0);
    ASSERT_TRUE(unit.has_value());
    EXPECT_EQ(unit->unit_id, i);
  }
  EXPECT_FALSE(scheduler.grant(1, 0).has_value());
  EXPECT_FALSE(scheduler.all_done());
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(scheduler.complete(i, 1));
  EXPECT_TRUE(scheduler.all_done());
  EXPECT_EQ(scheduler.regranted(), 0u);
}

TEST(UnitScheduler, WorkerLossRequeuesOnlyItsUnits) {
  dist::UnitScheduler scheduler(make_units(4));
  ASSERT_TRUE(scheduler.grant(1, 0).has_value());  // unit 0 -> worker 1
  ASSERT_TRUE(scheduler.grant(2, 0).has_value());  // unit 1 -> worker 2
  ASSERT_TRUE(scheduler.grant(1, 0).has_value());  // unit 2 -> worker 1

  EXPECT_EQ(scheduler.on_worker_lost(1), 2u);
  EXPECT_EQ(scheduler.regranted(), 2u);

  // Units 0 and 2 come back (most-recent first: LIFO), then unit 3.
  const auto r1 = scheduler.grant(2, 0);
  const auto r2 = scheduler.grant(2, 0);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_TRUE((r1->unit_id == 0 && r2->unit_id == 2) ||
              (r1->unit_id == 2 && r2->unit_id == 0));
  EXPECT_TRUE(scheduler.complete(1, 2));
  EXPECT_TRUE(scheduler.complete(r1->unit_id, 2));
  EXPECT_TRUE(scheduler.complete(r2->unit_id, 2));
  ASSERT_TRUE(scheduler.grant(2, 0).has_value());
  EXPECT_TRUE(scheduler.complete(3, 2));
  EXPECT_TRUE(scheduler.all_done());
}

TEST(UnitScheduler, DuplicateCompletionFromOldOwnerIsRejected) {
  dist::UnitScheduler scheduler(make_units(1));
  ASSERT_TRUE(scheduler.grant(1, 0).has_value());
  EXPECT_EQ(scheduler.on_worker_lost(1), 1u);
  ASSERT_TRUE(scheduler.grant(2, 0).has_value());
  EXPECT_FALSE(scheduler.complete(0, 1));  // stale completion from the ghost
  EXPECT_FALSE(scheduler.all_done());
  EXPECT_TRUE(scheduler.complete(0, 2));
  EXPECT_TRUE(scheduler.all_done());
  // A second completion for a Done unit is likewise a no-op.
  EXPECT_FALSE(scheduler.complete(0, 2));
}

TEST(UnitScheduler, RequeueStaleRespectsDeadline) {
  dist::UnitScheduler scheduler(make_units(2));
  ASSERT_TRUE(scheduler.grant(1, /*now_ms=*/1000).has_value());
  EXPECT_EQ(scheduler.requeue_stale(/*now_ms=*/1500, /*timeout_ms=*/0), 0u);
  EXPECT_EQ(scheduler.requeue_stale(/*now_ms=*/1500, /*timeout_ms=*/600), 0u);
  EXPECT_EQ(scheduler.requeue_stale(/*now_ms=*/1601, /*timeout_ms=*/600), 1u);
  EXPECT_EQ(scheduler.regranted(), 1u);
  // The re-queued unit is grantable again.
  const auto unit = scheduler.grant(2, 1601);
  ASSERT_TRUE(unit.has_value());
  EXPECT_EQ(unit->unit_id, 0u);
}

TEST(UnitScheduler, AbandonCellDropsItsUnits) {
  dist::UnitScheduler scheduler(make_units(4));  // cells 0 and 1, 2 units each
  const auto granted = scheduler.grant(1, 0);
  ASSERT_TRUE(granted.has_value());
  EXPECT_EQ(granted->cell_index, 0u);
  scheduler.abandon_cell(0);
  // Only cell 1's units remain grantable.
  const auto next = scheduler.grant(1, 0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->cell_index, 1u);
  EXPECT_TRUE(scheduler.complete(next->unit_id, 1));
  const auto last = scheduler.grant(1, 0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->cell_index, 1u);
  EXPECT_TRUE(scheduler.complete(last->unit_id, 1));
  EXPECT_TRUE(scheduler.all_done());
  // The abandoned-but-granted unit's completion stays harmless.
  EXPECT_FALSE(scheduler.complete(granted->unit_id, 1));
}

// --- plan fingerprint --------------------------------------------------------

TEST(PlanFingerprint, SensitiveToExecutionNotPresentation) {
  ToyApp a;
  const auto base =
      exp::PlanBuilder().runs(10).seed(7).apps({&a}).faults({"BF", "DW"}).build();
  const auto same =
      exp::PlanBuilder().runs(10).seed(7).apps({&a}).faults({"BF", "DW"}).build();
  EXPECT_EQ(dist::plan_fingerprint(base), dist::plan_fingerprint(same));

  const auto different_seed =
      exp::PlanBuilder().runs(10).seed(8).apps({&a}).faults({"BF", "DW"}).build();
  EXPECT_NE(dist::plan_fingerprint(base), dist::plan_fingerprint(different_seed));

  const auto different_runs =
      exp::PlanBuilder().runs(11).seed(7).apps({&a}).faults({"BF", "DW"}).build();
  EXPECT_NE(dist::plan_fingerprint(base), dist::plan_fingerprint(different_runs));

  // Labels are presentation-only.
  auto relabeled_builder = exp::PlanBuilder().runs(10).seed(7);
  relabeled_builder.cell(a, "BF", -1, "renamed-1");
  relabeled_builder.cell(a, "DW", -1, "renamed-2");
  EXPECT_EQ(dist::plan_fingerprint(base),
            dist::plan_fingerprint(relabeled_builder.build()));
}

// --- handshake ---------------------------------------------------------------

TEST(Handshake, VersionSkewIsRejected) {
  ToyApp a;
  const auto plan = exp::PlanBuilder().runs(4).apps({&a}).faults({"BF"}).build();
  dist::Coordinator coordinator(plan, {});
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  {
    auto socket = net::Socket::connect("127.0.0.1", port);
    dist::Hello hello;
    hello.version = dist::kProtocolVersion + 1;
    hello.worker_name = "time-traveler";
    net::send_frame(socket, dist::encode(hello));
    const auto reply = net::recv_frame(socket);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(dist::peek_type(*reply), dist::MsgType::HelloReject);
    const auto reject = dist::decode_hello_reject(*reply);
    EXPECT_NE(reject.reason.find("version"), std::string::npos);
  }
  {
    // A worker one protocol generation back gets the same named reject.
    auto socket = net::Socket::connect("127.0.0.1", port);
    dist::Hello hello;
    hello.version = 4;
    hello.worker_name = "last-release";
    net::send_frame(socket, dist::encode(hello));
    const auto reply = net::recv_frame(socket);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(dist::peek_type(*reply), dist::MsgType::HelloReject);
    const auto reject = dist::decode_hello_reject(*reply);
    EXPECT_NE(reject.reason.find("protocol version mismatch"), std::string::npos);
    EXPECT_NE(reject.reason.find("worker speaks v4"), std::string::npos);
  }
  {
    auto socket = net::Socket::connect("127.0.0.1", port);
    dist::Hello hello;
    hello.magic = 0x1badf00d;
    net::send_frame(socket, dist::encode(hello));
    const auto reply = net::recv_frame(socket);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(dist::peek_type(*reply), dist::MsgType::HelloReject);
  }

  coordinator.request_cancel();
  serve.join();
  EXPECT_TRUE(report.cancelled);
  // Rejected clients never count as fleet members.
  EXPECT_EQ(report.workers_connected, 0u);
}

TEST(Handshake, RunWorkerSurfacesRejection) {
  // run_worker against a coordinator is never rejected (same binary, same
  // version) — so exercise the client-side surface with a mismatched local
  // plan instead, which must throw before any execution.
  ToyApp a;
  const auto plan = exp::PlanBuilder().runs(4).apps({&a}).faults({"BF"}).build();
  const auto other = exp::PlanBuilder().runs(4).seed(99).apps({&a}).faults({"BF"}).build();
  dist::Coordinator coordinator(plan, {});
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  std::atomic<bool> threw{false};
  std::thread bad_worker([&] {
    dist::WorkerOptions wo;
    wo.plan = &other;
    try {
      (void)dist::run_worker("127.0.0.1", port, wo);
    } catch (const std::runtime_error&) {
      threw.store(true);
    }
  });
  bad_worker.join();
  EXPECT_TRUE(threw.load());

  // A correct worker still completes the plan afterwards.
  dist::WorkerOptions wo;
  wo.plan = &plan;
  std::thread good_worker([&] { (void)dist::run_worker("127.0.0.1", port, wo); });
  good_worker.join();
  serve.join();
  EXPECT_FALSE(report.cancelled);
  EXPECT_EQ(report.total_runs, plan.total_runs());
}

// --- end-to-end --------------------------------------------------------------

TEST(DistE2E, TwoWorkersMatchEngineTalliesBitForBit) {
  ToyApp a;
  const auto plan = exp::PlanBuilder()
                        .runs(48)
                        .seed(11)
                        .apps({&a})
                        .faults({"BF", "DW", "SW"})
                        .build();

  exp::EngineOptions engine_options;
  engine_options.threads = 1;
  const auto serial = exp::Engine(engine_options).run(plan);
  engine_options.threads = 4;
  const auto threaded = exp::Engine(engine_options).run(plan);
  expect_reports_identical(serial, threaded);  // engine's own invariant

  dist::CoordinatorOptions options;
  options.unit_runs = 8;
  const auto dist_run = run_distributed(plan, /*n_workers=*/2, options);

  expect_reports_identical(dist_run.report, serial);
  EXPECT_EQ(dist_run.report.workers_connected, 2u);
  EXPECT_EQ(dist_run.report.units_regranted, 0u);
  EXPECT_FALSE(dist_run.report.cancelled);

  // Together the workers executed the plan exactly once.  How the runs split
  // between them is a race: one worker may drain the plan before the other
  // is granted a unit, so no per-worker share is asserted.
  std::uint64_t fleet_runs = 0;
  for (const auto& w : dist_run.workers) {
    EXPECT_TRUE(w.reject_reason.empty());
    fleet_runs += w.runs_executed;
  }
  EXPECT_EQ(fleet_runs, plan.total_runs());
}

TEST(DistE2E, MediaFaultCellsTallyBitIdenticallyAcrossTheFleet) {
  // A grid mixing syscall-level and media-level cells: RunRow's counter list
  // must carry sectors_faulted / crc_detected so the coordinator rebuilds
  // the Detected-split counters bit-identically to a local engine run —
  // including detected_crc, which its fold recomputes per row.
  ToyApp a;
  const auto plan = exp::PlanBuilder()
                        .runs(24)
                        .seed(17)
                        .apps({&a})
                        .faults({"BF", "BIT_ROT@pwrite{sector=512,scrub=on,width=1}",
                                 "TORN_SECTOR@pwrite{sector=512,scrub=off}"})
                        .build();

  exp::EngineOptions engine_options;
  engine_options.threads = 1;
  const auto serial = exp::Engine(engine_options).run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 6;
  const auto dist_run = run_distributed(plan, /*n_workers=*/2, options);
  expect_reports_identical(dist_run.report, serial);

  // The media cells actually exercised the device on the workers: the
  // scrubbed BIT_ROT cell detected rots, the unscrubbed TORN cell faulted
  // sectors without a single CRC rejection.
  const auto& rot = dist_run.report.cells[1];
  EXPECT_GT(rot.sectors_faulted, 0u);
  EXPECT_GT(rot.crc_detected, 0u);
  EXPECT_EQ(rot.detected_crc, rot.tally.count(Outcome::Detected));
  const auto& torn = dist_run.report.cells[2];
  EXPECT_GT(torn.sectors_faulted, 0u);
  EXPECT_EQ(torn.crc_detected, 0u);
  EXPECT_EQ(torn.detected_crc, 0u);
}

TEST(DistE2E, WorkerDeathMidUnitRegrantsWithoutDoubleCounting) {
  ToyApp a;
  const auto plan = exp::PlanBuilder()
                        .runs(32)
                        .seed(5)
                        .apps({&a})
                        .faults({"BF", "DW"})
                        .build();
  const auto expected = exp::Engine().run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  // The doomed worker completes one unit, then dies mid-unit: it streams
  // half of the unit's rows and hard-closes the socket without UnitDone.
  dist::WorkerStats doomed;
  {
    dist::WorkerOptions wo;
    wo.name = "doomed";
    wo.plan = &plan;
    wo.abort_after_units = 1;
    std::thread t([&] { doomed = dist::run_worker("127.0.0.1", port, wo); });
    t.join();
  }
  EXPECT_TRUE(doomed.aborted);
  EXPECT_EQ(doomed.units_completed, 1u);

  // A healthy worker then finishes the campaign, including the re-granted
  // unit (whose duplicate half-rows must be deduplicated first-wins).
  dist::WorkerStats survivor;
  {
    dist::WorkerOptions wo;
    wo.name = "survivor";
    wo.plan = &plan;
    std::thread t([&] { survivor = dist::run_worker("127.0.0.1", port, wo); });
    t.join();
  }
  serve.join();

  expect_reports_identical(report, expected);
  EXPECT_GE(report.units_regranted, 1u);
  EXPECT_EQ(report.workers_connected, 2u);
  EXPECT_FALSE(report.cancelled);
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.runs_completed, cell.cell.runs);  // nothing lost, nothing doubled
  }
}

TEST(DistE2E, SharedCheckpointStoreServesTheFleet) {
  StoreDir store("fleet");
  StagedToyApp app;
  auto builder = exp::PlanBuilder().runs(24).seed(17);
  builder.app(app).faults({"BF", "DW"}).stages(1, 2).product();
  const auto plan = builder.build();

  exp::EngineOptions engine_options;
  engine_options.threads = 2;
  const auto expected = exp::Engine(engine_options).run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 6;
  options.engine.checkpoint_dir = store.path();
  const auto dist_run = run_distributed(plan, /*n_workers=*/2, options);

  expect_reports_identical(dist_run.report, expected);
  EXPECT_EQ(dist_run.report.workers_connected, 2u);

  // Stage-2 cells ran checkpointed on the workers (CellInfo facts survive
  // the merge), and the store directory now holds published entries.
  bool any_checkpointed = false;
  for (const auto& cell : dist_run.report.cells) {
    if (cell.cell.stage >= 1 && cell.checkpointed) any_checkpointed = true;
  }
  EXPECT_TRUE(any_checkpointed);
  EXPECT_FALSE(stdfs::is_empty(store.path()));
}

TEST(DistE2E, DeterministicPrepareFailureAbandonsCellFleetWide) {
  ToyApp toy;
  SilentApp silent;
  const auto plan = exp::PlanBuilder()
                        .runs(12)
                        .seed(9)
                        .apps({&silent, &toy})
                        .faults({"BF"})
                        .build();
  const auto expected = exp::Engine().run(plan);
  ASSERT_FALSE(expected.cells[0].error.empty());  // silent cell cannot run

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  const auto dist_run = run_distributed(plan, /*n_workers=*/2, options);

  expect_reports_identical(dist_run.report, expected);
  EXPECT_FALSE(dist_run.report.cells[0].error.empty());
  EXPECT_EQ(dist_run.report.cells[0].tally.total(), 0u);
  EXPECT_EQ(dist_run.report.cells[1].tally.total(), 12u);
}

// --- worker_id sink column ---------------------------------------------------

TEST(DistSinks, WorkerIdColumnRoundTripsThroughCsvAndJsonl) {
  ToyApp a;
  const auto plan =
      exp::PlanBuilder().runs(16).seed(13).apps({&a}).faults({"BF", "DW"}).build();

  std::ostringstream csv_text, jsonl_text;
  exp::CsvSink csv(csv_text);
  exp::JsonlSink jsonl(jsonl_text);
  exp::MultiSink sinks;
  sinks.add(csv).add(jsonl);

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  const auto dist_run = run_distributed(plan, /*n_workers=*/2, options, &sinks);

  // Worker ids recorded on the cells: sorted, non-empty, drawn from the
  // fleet's handshake-assigned ids.
  for (const auto& cell : dist_run.report.cells) {
    ASSERT_FALSE(cell.worker_ids.empty());
    EXPECT_TRUE(std::is_sorted(cell.worker_ids.begin(), cell.worker_ids.end()));
  }

  {
    std::istringstream in(csv_text.str());
    const auto rows = exp::read_csv_results(in);
    ASSERT_EQ(rows.size(), plan.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_FALSE(rows[i].worker_id.empty());
      EXPECT_EQ(rows[i].worker_id,
                exp::to_sink_row(dist_run.report.cells[i]).worker_id);
      EXPECT_EQ(rows[i].tally.total(), dist_run.report.cells[i].tally.total());
    }
  }
  {
    std::istringstream in(jsonl_text.str());
    const auto rows = exp::read_jsonl_results(in);
    ASSERT_EQ(rows.size(), plan.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(rows[i].worker_id,
                exp::to_sink_row(dist_run.report.cells[i]).worker_id);
    }
  }

  // Local engine runs leave the column empty end to end.
  std::ostringstream local_csv_text;
  exp::CsvSink local_csv(local_csv_text);
  (void)exp::Engine().run(plan, local_csv);
  std::istringstream in(local_csv_text.str());
  const auto rows = exp::read_csv_results(in);
  ASSERT_EQ(rows.size(), plan.size());
  for (const auto& row : rows) EXPECT_TRUE(row.worker_id.empty());
}

TEST(DistSinks, LegacyCsvWithoutWorkerIdStillParses) {
  // A 23-column document from the previous sink generation: the reader must
  // accept it and default worker_id to empty.
  const std::string legacy =
      "index,label,application,fault,stage,runs,seed,primitive_count,"
      "benign,detected,sdc,crash,faults_not_fired,"
      "chunks_allocated,chunk_detaches,cow_bytes_copied,"
      "execute_ms,analyze_ms,analyze_skipped,"
      "golden_cached,checkpointed,checkpoint_loaded,error\n"
      "0,TOY-BF,toy,BF,-1,10,7,40,6,3,1,0,2,12,4,256,1.5,0.5,3,1,0,0,\n";
  std::istringstream in(legacy);
  const auto rows = exp::read_csv_results(in);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "TOY-BF");
  EXPECT_EQ(rows[0].tally.count(Outcome::Benign), 6u);
  EXPECT_TRUE(rows[0].worker_id.empty());
  EXPECT_TRUE(rows[0].golden_cached);
  EXPECT_FALSE(rows[0].checkpoint_loaded);
}

// --- resilience: campaign journal --------------------------------------------

exp::ExperimentPlan make_journal_plan(const core::Application& app) {
  // 32 runs x 2 cells at unit_runs=4 -> 16 uniform 4-run units.
  return exp::PlanBuilder().runs(32).seed(5).apps({&app}).faults({"BF", "DW"}).build();
}

/// Simulates a coordinator that dies mid-campaign: one worker lands
/// `units_landed` units into the journal and then dies mid-unit; the
/// coordinator drains (in-flight re-queued by the disconnect, so the drain
/// completes immediately) and its report covers only the landed work.  A
/// SIGKILL would leave the exact same journal — records are fsync'd per unit
/// and nothing is written at shutdown — which the CI chaos job proves with a
/// real kill -9.
exp::ExperimentReport run_partial_with_journal(const exp::ExperimentPlan& plan,
                                               const std::string& journal,
                                               std::size_t units_landed) {
  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  options.journal_path = journal;
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });
  dist::WorkerStats stats;
  {
    dist::WorkerOptions wo;
    wo.name = "doomed";
    wo.plan = &plan;
    wo.abort_after_units = units_landed;
    std::thread t([&] { stats = dist::run_worker("127.0.0.1", port, wo); });
    t.join();
  }
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.units_completed, units_landed);
  coordinator.request_drain();
  serve.join();
  EXPECT_TRUE(report.cancelled);
  EXPECT_LT(report.total_runs, plan.total_runs());
  return report;
}

/// Restarts the campaign against the same journal with one healthy worker
/// and runs it to completion.
DistOutcome resume_with_journal(const exp::ExperimentPlan& plan,
                                const std::string& journal) {
  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  options.journal_path = journal;
  return run_distributed(plan, /*n_workers=*/1, std::move(options));
}

TEST(Journal, ResumeReplaysLandedUnitsAndNeverReExecutesThem) {
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-resume");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";

  const auto partial = run_partial_with_journal(plan, journal, 3);
  EXPECT_EQ(partial.units_replayed_from_journal, 0u);

  const auto resumed = resume_with_journal(plan, journal);
  expect_reports_identical(resumed.report, expected);
  EXPECT_FALSE(resumed.report.cancelled);
  EXPECT_EQ(resumed.report.units_replayed_from_journal, 3u);
  // The landed units were never re-granted: the resuming worker executed
  // exactly the plan minus the replayed runs (the doomed worker's half-sent
  // fourth unit was not journaled and is legitimately re-executed).
  EXPECT_EQ(resumed.workers[0].runs_executed, plan.total_runs() - 3 * 4);
  for (const auto& cell : resumed.report.cells) {
    EXPECT_EQ(cell.runs_completed, cell.cell.runs);  // nothing lost, nothing doubled
  }
}

TEST(Journal, FullyJournaledCampaignResumesWithoutExecutingAnything) {
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-full");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  options.journal_path = journal;
  const auto first = run_distributed(plan, 1, std::move(options));
  expect_reports_identical(first.report, expected);

  // Everything is already landed, so the resumed coordinator finishes from
  // the journal alone — no worker connects, no run executes.
  dist::CoordinatorOptions resume_options;
  resume_options.unit_runs = 4;
  resume_options.journal_path = journal;
  dist::Coordinator resumed(plan, std::move(resume_options));
  const auto report = resumed.run();
  expect_reports_identical(report, expected);
  EXPECT_EQ(report.units_replayed_from_journal, 16u);
  EXPECT_EQ(report.workers_connected, 0u);
}

TEST(Journal, TruncatedTailDropsOnlyTheTornRecord) {
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-torn");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";
  (void)run_partial_with_journal(plan, journal, 3);

  // Tear the last record, as a crash mid-append would.
  stdfs::resize_file(journal, stdfs::file_size(journal) - 5);

  const auto resumed = resume_with_journal(plan, journal);
  expect_reports_identical(resumed.report, expected);
  EXPECT_EQ(resumed.report.units_replayed_from_journal, 2u);
}

TEST(Journal, FlippedChecksumByteDropsThatRecordAndEverythingAfter) {
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-flip");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";
  (void)run_partial_with_journal(plan, journal, 3);

  {
    // Corrupt a byte inside the first record's payload (just past the
    // 36-byte header and its 4-byte record length prefix).
    std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(44);
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(44);
    f.write(&c, 1);
  }

  const auto resumed = resume_with_journal(plan, journal);
  expect_reports_identical(resumed.report, expected);
  EXPECT_EQ(resumed.report.units_replayed_from_journal, 0u);
}

TEST(Journal, WrongPlanFingerprintStartsOverCleanly) {
  ToyApp a;
  const auto plan_a = make_journal_plan(a);
  const auto plan_b =
      exp::PlanBuilder().runs(32).seed(6).apps({&a}).faults({"BF", "DW"}).build();
  const auto expected_b = exp::Engine().run(plan_b);
  StoreDir dir("journal-mismatch");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";
  (void)run_partial_with_journal(plan_a, journal, 3);

  // A different plan at the same path: nothing replays, nothing crashes, and
  // the journal is re-seeded for the new plan.
  const auto run_b = resume_with_journal(plan_b, journal);
  expect_reports_identical(run_b.report, expected_b);
  EXPECT_EQ(run_b.report.units_replayed_from_journal, 0u);

  // ...and the re-seeded journal now fully replays plan B, worker-free.
  dist::CoordinatorOptions resume_options;
  resume_options.unit_runs = 4;
  resume_options.journal_path = journal;
  dist::Coordinator resumed_b(plan_b, std::move(resume_options));
  const auto report_b = resumed_b.run();
  expect_reports_identical(report_b, expected_b);
  EXPECT_EQ(report_b.units_replayed_from_journal, 16u);
}

TEST(Journal, BumpedFormatVersionStartsOverCleanly) {
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-version");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";
  (void)run_partial_with_journal(plan, journal, 3);

  {
    // Bump the format field (offset 8, after the 8-byte signature): a future
    // format must read as "not my header", not as garbled records.
    std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    const char future = 3;
    f.seekp(8);
    f.write(&future, 1);
  }

  const auto resumed = resume_with_journal(plan, journal);
  expect_reports_identical(resumed.report, expected);
  EXPECT_EQ(resumed.report.units_replayed_from_journal, 0u);
}

TEST(Journal, FormatOneJournalStartsOverCleanly) {
  // A journal written by a build before the counted-list RunRow: its header
  // is intact and checksummed, but names format 1, so none of its records
  // (v4 rows) may replay.
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-format1");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";
  (void)run_partial_with_journal(plan, journal, 3);
  {
    util::Bytes header;
    util::ByteWriter w(header);
    w.raw(util::to_bytes(std::string_view("FFISJRNL")));
    w.u32(1);
    w.u64(dist::plan_fingerprint(plan));
    w.u64(4);  // unit_runs
    w.u64(util::fnv1a64(header));
    std::fstream f(journal, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.write(reinterpret_cast<const char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  }
  const auto resumed = resume_with_journal(plan, journal);
  expect_reports_identical(resumed.report, expected);
  EXPECT_EQ(resumed.report.units_replayed_from_journal, 0u);
}

TEST(Journal, ReplaysEveryTableCounterOfAJournaledRow) {
  StoreDir dir("journal-counters");
  stdfs::create_directories(dir.path());
  const std::string path = dir.path() + "/j.jrnl";
  dist::RunRow row;
  row.cell_index = 1;
  row.run_index = 3;
  row.outcome = Outcome::Detected;
  test_support::set_distinct_counters(row.fs_stats);
  {
    dist::CampaignJournal j(path, /*plan_fingerprint=*/0x5eed, /*unit_runs=*/4);
    j.append_unit(0, {{7u, row}});
  }
  dist::CampaignJournal j(path, 0x5eed, 4);
  ASSERT_EQ(j.replayed().units.size(), 1u);
  ASSERT_EQ(j.replayed().units[0].rows.size(), 1u);
  const auto& [worker_id, replayed] = j.replayed().units[0].rows[0];
  EXPECT_EQ(worker_id, 7u);
  EXPECT_EQ(replayed.outcome, Outcome::Detected);
  std::vector<std::uint64_t> want, got;
  row.fs_stats.for_each([&](const char*, std::uint64_t v) { want.push_back(v); });
  replayed.fs_stats.for_each([&](const char*, std::uint64_t v) { got.push_back(v); });
  EXPECT_EQ(got, want);
}

TEST(RunCounterTable, CoordinatorFoldOverTheWireMatchesTheEngineFold) {
  // The engine folds RunResults directly; the coordinator folds what
  // survives to_run_row -> encode -> decode -> to_run_result.  With every
  // counter distinct per run, both cells must agree entry for entry.
  exp::CellResult engine_cell, coordinator_cell;
  for (std::uint64_t r = 0; r < 4; ++r) {
    core::RunResult run;
    run.outcome = static_cast<Outcome>(r % core::kOutcomeCount);
    run.fault_fired = r != 0;
    run.analyze_skipped = r % 2 == 0;
    run.execute_ms = 1.5 * static_cast<double>(r + 1);
    run.analyze_ms = 0.25 * static_cast<double>(r);
    test_support::set_distinct_counters(run.fs_stats, /*base=*/100 * r);
    engine_cell.add_run(run);
    coordinator_cell.add_run(
        dist::to_run_result(dist::decode_run_row(dist::encode(dist::to_run_row(run)))));
  }
  EXPECT_EQ(coordinator_cell.runs_completed, engine_cell.runs_completed);
  EXPECT_EQ(coordinator_cell.faults_not_fired, engine_cell.faults_not_fired);
  for (std::size_t o = 0; o < core::kOutcomeCount; ++o) {
    EXPECT_EQ(coordinator_cell.tally.count(static_cast<Outcome>(o)),
              engine_cell.tally.count(static_cast<Outcome>(o)));
  }
  EXPECT_EQ(test_support::counter_values(coordinator_cell),
            test_support::counter_values(engine_cell));
  // Every run's crc_detected is non-zero (its base + table position), and
  // runs 0 and 2 skipped analysis.
  EXPECT_EQ(engine_cell.detected_crc, 4u);
  EXPECT_EQ(engine_cell.analyze_skipped, 2u);
}

TEST(Journal, GarbageFileStartsOverCleanly) {
  ToyApp a;
  const auto plan = make_journal_plan(a);
  const auto expected = exp::Engine().run(plan);
  StoreDir dir("journal-garbage");
  stdfs::create_directories(dir.path());
  const std::string journal = dir.path() + "/campaign.jrnl";
  {
    std::ofstream f(journal, std::ios::binary);
    f << "this is not a campaign journal";
  }
  const auto run = resume_with_journal(plan, journal);
  expect_reports_identical(run.report, expected);
  EXPECT_EQ(run.report.units_replayed_from_journal, 0u);
}

TEST(Journal, ReplayFlagsReportResumeStartOverAndTornTail) {
  StoreDir dir("journal-flags");
  stdfs::create_directories(dir.path());
  const std::string path = dir.path() + "/j.jrnl";
  {
    dist::CampaignJournal j(path, /*plan_fingerprint=*/0xabcd, /*unit_runs=*/4);
    EXPECT_FALSE(j.replayed().resumed);
    EXPECT_FALSE(j.replayed().started_over);
    dist::CellInfo info;
    info.cell_index = 0;
    info.primitive_count = 7;
    j.append_cell_info(info);
    j.append_unit(0, {});
  }
  {
    dist::CampaignJournal j(path, 0xabcd, 4);
    EXPECT_TRUE(j.replayed().resumed);
    ASSERT_EQ(j.replayed().cell_infos.size(), 1u);
    EXPECT_EQ(j.replayed().cell_infos[0].primitive_count, 7u);
    ASSERT_EQ(j.replayed().units.size(), 1u);
    EXPECT_EQ(j.replayed().tail_bytes_dropped, 0u);
  }
  const auto full_size = stdfs::file_size(path);
  stdfs::resize_file(path, full_size - 3);
  {
    dist::CampaignJournal j(path, 0xabcd, 4);
    EXPECT_TRUE(j.replayed().resumed);
    ASSERT_EQ(j.replayed().units.size(), 0u);  // torn unit record dropped
    EXPECT_GT(j.replayed().tail_bytes_dropped, 0u);
  }
  {
    // unit_runs is part of the journal identity: unit ids are positions in
    // the shard list, so a different sharding must not replay.
    dist::CampaignJournal j(path, 0xabcd, 8);
    EXPECT_FALSE(j.replayed().resumed);
    EXPECT_TRUE(j.replayed().started_over);
  }
}

// --- resilience: worker retry ------------------------------------------------

TEST(Retry, WorkerReconnectsAfterAFaultyFirstConnection) {
  ToyApp a;
  const auto plan =
      exp::PlanBuilder().runs(16).seed(9).apps({&a}).faults({"BF"}).build();
  const auto expected = exp::Engine().run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  // First connection blackholes after 8 sent bytes (mid-Hello); every retry
  // gets a clean link.
  auto attempts = std::make_shared<std::atomic<int>>(0);
  dist::WorkerOptions wo;
  wo.name = "flaky";
  wo.plan = &plan;
  wo.retry_attempts = 5;
  wo.retry_backoff_ms = 2;
  wo.retry_backoff_max_ms = 8;
  wo.transport = [attempts](net::Socket socket) -> std::unique_ptr<net::Stream> {
    const auto plan_for_attempt = (attempts->fetch_add(1) == 0)
                                      ? net::FaultPlan::drop_after_send(8)
                                      : net::FaultPlan::none();
    return std::make_unique<net::FaultySocket>(std::move(socket), plan_for_attempt);
  };
  dist::WorkerStats stats;
  std::thread t([&] { stats = dist::run_worker("127.0.0.1", port, wo); });
  t.join();
  serve.join();

  expect_reports_identical(report, expected);
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_GE(report.worker_reconnects, 1u);
  EXPECT_EQ(stats.runs_executed, plan.total_runs());
}

TEST(Retry, ExhaustedAttemptsAgainstADeadPortThrowNetError) {
  // Bind-then-close to learn a port nobody listens on.
  std::uint16_t dead_port = 0;
  {
    auto listener = net::Listener::listen(0);
    dead_port = listener.port();
  }
  dist::WorkerOptions wo;
  wo.retry_attempts = 3;
  wo.retry_backoff_ms = 1;
  wo.retry_backoff_max_ms = 2;
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_THROW((void)dist::run_worker("127.0.0.1", dead_port, wo), net::NetError);
  // Two backoff sleeps happened (not three): the budget bounds the attempts.
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(Retry, SeededTransportFaultSweepNeverCorruptsTallies) {
  ToyApp a;
  const auto plan =
      exp::PlanBuilder().runs(16).seed(9).apps({&a}).faults({"BF"}).build();
  const auto expected = exp::Engine().run(plan);

  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    dist::CoordinatorOptions options;
    options.unit_runs = 4;
    dist::Coordinator coordinator(plan, std::move(options));
    const std::uint16_t port = coordinator.port();
    exp::ExperimentReport report;
    std::thread serve([&] { report = coordinator.run(); });

    // One worker takes a seeded transport fault on its first connection and
    // retries clean; a healthy worker guarantees the campaign always
    // completes even when the faulty one dies terminally (e.g. a garbled
    // fingerprint reads as an incompatible fleet — correctly unretryable).
    auto attempts = std::make_shared<std::atomic<int>>(0);
    std::thread faulty([&, attempts] {
      dist::WorkerOptions wo;
      wo.name = "faulty";
      wo.plan = &plan;
      wo.retry_attempts = 6;
      wo.retry_backoff_ms = 2;
      wo.retry_backoff_max_ms = 8;
      wo.retry_jitter_seed = seed;
      wo.transport = [attempts, seed](net::Socket socket) -> std::unique_ptr<net::Stream> {
        const auto fault_plan = (attempts->fetch_add(1) == 0)
                                    ? net::FaultPlan::from_seed(seed)
                                    : net::FaultPlan::none();
        return std::make_unique<net::FaultySocket>(std::move(socket), fault_plan);
      };
      try {
        (void)dist::run_worker("127.0.0.1", port, wo);
      } catch (const std::exception&) {
        // Terminal for this worker; never for the campaign.
      }
    });
    std::thread healthy([&] {
      dist::WorkerOptions wo;
      wo.name = "healthy";
      wo.plan = &plan;
      (void)dist::run_worker("127.0.0.1", port, wo);
    });
    faulty.join();
    healthy.join();
    serve.join();

    // The invariant under every fault: bit-identical tallies, every run
    // counted exactly once.
    expect_reports_identical(report, expected);
    for (const auto& cell : report.cells) {
      EXPECT_EQ(cell.runs_completed, cell.cell.runs);
    }
  }
}

// --- resilience: heartbeats & liveness ---------------------------------------

/// Raw v2 client: handshakes and takes one work grant, then does whatever
/// the test scripts next (hang, ping, disconnect).
net::Socket raw_client_with_grant(std::uint16_t port, const std::string& name) {
  auto socket = net::Socket::connect("127.0.0.1", port);
  dist::Hello hello;
  hello.worker_name = name;
  net::send_frame(socket, dist::encode(hello));
  const auto ack = net::recv_frame(socket);
  EXPECT_TRUE(ack.has_value());
  EXPECT_EQ(dist::peek_type(*ack), dist::MsgType::HelloAck);
  net::send_frame(socket, dist::encode(dist::WorkRequest{}));
  const auto grant = net::recv_frame(socket);
  EXPECT_TRUE(grant.has_value());
  EXPECT_EQ(dist::peek_type(*grant), dist::MsgType::WorkGrant);
  return socket;
}

TEST(Heartbeat, HungWorkerTripsTheTimeoutAndItsUnitIsRegranted) {
  ToyApp a;
  const auto plan =
      exp::PlanBuilder().runs(16).seed(9).apps({&a}).faults({"BF"}).build();
  const auto expected = exp::Engine().run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  options.unit_timeout_ms = 150;
  options.heartbeat_interval_ms = 40;
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  // Takes a grant, then goes silent: connected but sending neither rows nor
  // Pings.  Only the stale sweep can rescue its unit.
  auto hung = raw_client_with_grant(port, "hung");

  dist::WorkerStats stats;
  std::thread healthy([&] {
    dist::WorkerOptions wo;
    wo.name = "healthy";
    wo.plan = &plan;
    stats = dist::run_worker("127.0.0.1", port, wo);
  });
  healthy.join();
  serve.join();
  hung.close();

  expect_reports_identical(report, expected);
  EXPECT_GE(report.heartbeat_timeouts, 1u);
  EXPECT_GE(report.units_regranted, 1u);
  EXPECT_EQ(stats.runs_executed, plan.total_runs());  // including the rescue
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.runs_completed, cell.cell.runs);
  }
}

TEST(Heartbeat, PingsKeepASlowWorkersGrantAlive) {
  ToyApp a;
  const auto plan =
      exp::PlanBuilder().runs(8).seed(9).apps({&a}).faults({"BF"}).build();
  const auto expected = exp::Engine().run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  options.unit_timeout_ms = 120;
  options.heartbeat_interval_ms = 30;
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  // Holds a grant for 4x the unit timeout while pinging: the heartbeats
  // restamp the grant clock, so the stale sweep must never re-queue it.
  auto slow = raw_client_with_grant(port, "slow-but-alive");
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(480);
  while (std::chrono::steady_clock::now() < deadline) {
    net::send_frame(slow, dist::encode(dist::Ping{}));
    const auto pong = net::recv_frame(slow);  // coordinator answers each Ping
    ASSERT_TRUE(pong.has_value());
    EXPECT_EQ(dist::peek_type(*pong), dist::MsgType::Pong);
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  // Only then does the slow worker die; its unit re-queues via disconnect.
  slow.close();

  dist::WorkerStats stats;
  std::thread healthy([&] {
    dist::WorkerOptions wo;
    wo.name = "healthy";
    wo.plan = &plan;
    stats = dist::run_worker("127.0.0.1", port, wo);
  });
  healthy.join();
  serve.join();

  expect_reports_identical(report, expected);
  EXPECT_EQ(report.heartbeat_timeouts, 0u);  // the Pings did their job
  EXPECT_GE(report.units_regranted, 1u);     // the disconnect, not the sweep
  for (const auto& cell : report.cells) {
    EXPECT_EQ(cell.runs_completed, cell.cell.runs);
  }
}

// --- resilience: auth --------------------------------------------------------

TEST(Auth, WrongTokenIsRejectedBeforeAnyPlanTextIsSent) {
  ToyApp a;
  const auto plan =
      exp::PlanBuilder().runs(8).seed(9).apps({&a}).faults({"BF"}).build();
  const auto expected = exp::Engine().run(plan);

  dist::CoordinatorOptions options;
  options.unit_runs = 4;
  options.auth_token = "sesame";
  options.plan_text = "runs = 8\nseed = 9\n[cell]\nfault = BF\n";  // secret-ish
  dist::Coordinator coordinator(plan, std::move(options));
  const std::uint16_t port = coordinator.port();
  exp::ExperimentReport report;
  std::thread serve([&] { report = coordinator.run(); });

  {
    // Raw probe with the wrong token: the only reply is a HelloReject, and
    // it leaks nothing about the plan.
    auto socket = net::Socket::connect("127.0.0.1", port);
    dist::Hello hello;
    hello.worker_name = "intruder";
    hello.auth_token = "open says me";
    net::send_frame(socket, dist::encode(hello));
    const auto reply = net::recv_frame(socket);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(dist::peek_type(*reply), dist::MsgType::HelloReject);
    EXPECT_EQ(dist::decode_hello_reject(*reply).reason, "auth token mismatch");
    EXPECT_FALSE(net::recv_frame(socket).has_value());  // nothing follows
  }
  {
    // run_worker surfaces the rejection without retrying or executing.
    dist::WorkerOptions wo;
    wo.name = "no-token";
    wo.plan = &plan;
    wo.retry_attempts = 3;
    dist::WorkerStats stats;
    std::thread t([&] { stats = dist::run_worker("127.0.0.1", port, wo); });
    t.join();
    EXPECT_EQ(stats.reject_reason, "auth token mismatch");
    EXPECT_EQ(stats.runs_executed, 0u);
  }

  dist::WorkerStats accepted;
  {
    dist::WorkerOptions wo;
    wo.name = "fleet-member";
    wo.plan = &plan;
    wo.auth_token = "sesame";
    std::thread t([&] { accepted = dist::run_worker("127.0.0.1", port, wo); });
    t.join();
  }
  serve.join();

  expect_reports_identical(report, expected);
  EXPECT_TRUE(accepted.reject_reason.empty());
  EXPECT_EQ(accepted.runs_executed, plan.total_runs());
  EXPECT_EQ(report.workers_connected, 1u);  // rejected probes never count
}

}  // namespace

