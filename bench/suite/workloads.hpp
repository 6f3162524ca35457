#pragma once
// The suite's four campaign workloads and the two ways a trial executes a
// plan: one exp::Engine, or a dist::Coordinator with two in-process workers
// over loopback.  Each workload stresses a different layer; README.md says
// which and why.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ffis/apps/montage/montage_app.hpp"
#include "ffis/apps/nyx/nyx_app.hpp"
#include "ffis/apps/qmc/qmc_app.hpp"
#include "ffis/dist/coordinator.hpp"
#include "ffis/dist/protocol.hpp"
#include "ffis/dist/worker.hpp"
#include "ffis/exp/engine.hpp"
#include "ffis/exp/plan.hpp"
#include "ffis/net/socket.hpp"

namespace ffis::suite {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- Applications ------------------------------------------------------------

/// bench_perf_engine's dense mosaic: a 6x3 grid with 50 % overlap, so the
/// overlap-driven prefix stages carry realistic weight against the coadd.
inline std::shared_ptr<const core::Application> dense_montage() {
  montage::MontageConfig config;
  config.scene.tile_x0 = {0, 24, 48, 72, 96, 120};
  config.scene.tile_y0 = {0, 24, 48};
  return std::make_shared<montage::MontageApp>(config);
}

/// Nyx on an n^3 field with `dumps` plotfile dumps (stage t >= 2 rewrites
/// one slab of the plotfile in place).
inline std::shared_ptr<const core::Application> nyx(std::size_t n, int dumps) {
  nyx::NyxConfig config;
  config.field.n = n;
  config.timesteps = dumps;
  return std::make_shared<nyx::NyxApp>(config);
}

// --- Workloads ---------------------------------------------------------------

struct Workload {
  const char* name;
  const char* why;
  /// Executed by a coordinator and two workers instead of one engine.
  bool fleet;
  /// Runs per cell in one trial's fixed plan.
  std::uint64_t runs_per_cell;
  /// Runs per cell replayed by the traced pass (the first runs of each cell).
  std::uint64_t traced_runs;
  exp::ExperimentPlan (*plan)(std::uint64_t seed, std::uint64_t runs);
};

inline const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"montage-resume",
       "execution-bound checkpoint path: app compute dominates a 2-3 ms resumed run",
       false, 600, 150,
       [](std::uint64_t seed, std::uint64_t runs) {
         exp::PlanBuilder b;
         b.runs(runs).seed(seed);
         b.app(dense_montage()).faults({"BF", "SHORN_WRITE@pwrite"}).stages(3, 4).product();
         return b.build();
       }},
      {"nyx-classify",
       "classification-bound: full-fallback analysis on 80^3 and dirty-slab splice on 96^3",
       false, 400, 100,
       [](std::uint64_t seed, std::uint64_t runs) {
         exp::PlanBuilder b;
         b.runs(runs).seed(seed);
         b.app(nyx(80, 2)).faults({"BF", "SHORN_WRITE@pwrite"}).stage(2).product();
         b.app(nyx(96, 3)).fault("BF").stage(3).product();
         return b.build();
       }},
      {"media-scrub",
       "the only mounted BlockDevice: sector counting, CRC scrub, no checkpoint",
       false, 200, 50,
       [](std::uint64_t seed, std::uint64_t runs) {
         exp::PlanBuilder b;
         b.runs(runs).seed(seed);
         b.app(nyx(80, 2))
             .faults({"BIT_ROT@pwrite{sector=512,scrub=on,width=1}",
                      "TORN_SECTOR@pwrite{sector=4096,scrub=off}", "LSE", "MW"})
             .product();
         return b.build();
       }},
      {"fleet-warm",
       "coordinator plus two workers over loopback, set up from a warm checkpoint store",
       true, 1000, 150,
       [](std::uint64_t seed, std::uint64_t runs) {
         exp::PlanBuilder b;
         b.runs(runs).seed(seed);
         b.app(std::make_shared<qmc::QmcApp>())
             .faults({"BF", "SHORN_WRITE@pwrite"})
             .stage(2)
             .product();
         b.app(dense_montage()).fault("BF").stage(4).product();
         return b.build();
       }},
  };
  return all;
}

inline const Workload* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- Fleet transport probe ---------------------------------------------------

/// Counters shared by the workers' CountingStreams.
struct FleetProbe {
  std::atomic<std::uint64_t> frames{0};  ///< sent and received
  std::atomic<std::uint64_t> bytes{0};
  std::atomic<std::uint64_t> grants{0};
  std::atomic<std::int64_t> recv_wait_ns{0};
  std::atomic<bool> first_batch_seen{false};
  Clock::time_point first_batch{};  ///< written once, by the first-batch sender
  /// When Coordinator::run was entered (set by the serving thread).
  std::atomic<Clock::rep> run_entry{0};
  /// Called with (run entry, now) right after the first RunBatch frame is on
  /// the wire.
  std::function<void(Clock::time_point, Clock::time_point)> on_first_batch;
};

/// A net::Stream over the worker's socket that counts frames and bytes,
/// reads each outgoing frame's type with dist::peek_type, and times the
/// worker's blocking receives.  Frames are a 4-byte length prefix and a
/// payload, each sent (and received) by one call — see net::send_frame.
class CountingStream final : public net::Stream {
 public:
  CountingStream(net::Socket socket, FleetProbe& probe)
      : socket_(std::move(socket)), probe_(probe) {}

  void send_all(util::ByteSpan data) override {
    socket_.send_all(data);
    probe_.bytes.fetch_add(data.size(), std::memory_order_relaxed);
    if (send_pending_ == 0) {
      send_pending_ = prefix_length(data);
      if (send_pending_ == 0) probe_.frames.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    send_pending_ = 0;
    probe_.frames.fetch_add(1, std::memory_order_relaxed);
    if (dist::peek_type(data) == dist::MsgType::RunBatch &&
        !probe_.first_batch_seen.exchange(true)) {
      probe_.first_batch = Clock::now();
      if (probe_.on_first_batch) {
        const Clock::time_point entry{Clock::duration(probe_.run_entry.load())};
        probe_.on_first_batch(entry, probe_.first_batch);
      }
    }
  }

  bool recv_exact(util::MutableByteSpan out) override {
    const auto start = Clock::now();
    const bool got = socket_.recv_exact(out);
    probe_.recv_wait_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count(),
        std::memory_order_relaxed);
    if (!got) return false;
    probe_.bytes.fetch_add(out.size(), std::memory_order_relaxed);
    if (recv_pending_ == 0) {
      probe_.frames.fetch_add(1, std::memory_order_relaxed);
      recv_pending_ = prefix_length(out);
    } else {
      recv_pending_ = 0;
      if (dist::peek_type(out) == dist::MsgType::WorkGrant) {
        probe_.grants.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return true;
  }

  void shutdown_both() noexcept override { socket_.shutdown_both(); }

 private:
  static std::uint32_t prefix_length(util::ByteSpan prefix) {
    if (prefix.size() != 4) throw net::NetError("CountingStream: expected a frame prefix");
    std::uint32_t n = 0;
    for (std::size_t i = 0; i < 4; ++i) n |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
    return n;
  }

  net::Socket socket_;
  FleetProbe& probe_;
  std::uint32_t send_pending_ = 0;  ///< payload bytes announced by the last prefix
  std::uint32_t recv_pending_ = 0;
};

// --- Trial runners -----------------------------------------------------------

/// One execution of a plan, timed at the points the end-to-end metrics use.
struct Trial {
  exp::ExperimentReport report;
  Clock::time_point entry{};  ///< Engine::run / Coordinator::run entered
  Clock::time_point first{};  ///< first progress callback / first RunBatch sent
  Clock::time_point done{};   ///< run returned
  std::size_t threads = 0;    ///< execution threads (engine pool, or all workers)
  double worker_wall_s = 0.0; ///< fleet: summed worker session time
};

/// Runs `plan` on one engine with `threads` threads.  `on_first` (optional)
/// is called with (run entry, now) on a pool thread right after the first
/// run completes.
inline Trial run_local(
    const exp::ExperimentPlan& plan, std::size_t threads,
    const std::function<void(Clock::time_point, Clock::time_point)>& on_first = {}) {
  Trial t;
  t.threads = threads;
  std::atomic<bool> seen{false};
  exp::EngineOptions options;
  options.threads = threads;
  options.progress = [&](std::uint64_t, std::uint64_t) {
    if (seen.exchange(true)) return;
    t.first = Clock::now();
    if (on_first) on_first(t.entry, t.first);
  };
  exp::Engine engine(options);
  t.entry = Clock::now();
  t.report = engine.run(plan);
  t.done = Clock::now();
  return t;
}

/// Runs `plan` on a coordinator (default unit size) and two in-process
/// workers of threads/2 threads each, over loopback, against the checkpoint
/// store at `store_dir`.
inline Trial run_fleet(const exp::ExperimentPlan& plan, std::size_t threads,
                       const std::string& store_dir, FleetProbe& probe) {
  constexpr std::size_t kWorkers = 2;
  const std::size_t per_worker = std::max<std::size_t>(1, threads / kWorkers);
  Trial t;
  t.threads = per_worker * kWorkers;

  dist::CoordinatorOptions options;
  options.engine.checkpoint_dir = store_dir;
  dist::Coordinator coordinator(plan, options);
  const std::uint16_t port = coordinator.port();

  std::string serve_error;
  std::thread serve([&] {
    try {
      t.entry = Clock::now();
      probe.run_entry.store(t.entry.time_since_epoch().count());
      t.report = coordinator.run();
      t.done = Clock::now();
    } catch (const std::exception& e) {
      serve_error = e.what();
    }
  });
  std::vector<std::string> worker_errors(kWorkers);
  std::vector<double> worker_wall(kWorkers, 0.0);
  std::vector<std::thread> fleet;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    fleet.emplace_back([&, i] {
      const auto start = Clock::now();
      try {
        dist::WorkerOptions wo;
        wo.name = "suite-worker-" + std::to_string(i);
        wo.threads = per_worker;
        wo.plan = &plan;
        wo.transport = [&probe](net::Socket socket) -> std::unique_ptr<net::Stream> {
          return std::make_unique<CountingStream>(std::move(socket), probe);
        };
        const dist::WorkerStats stats = dist::run_worker("127.0.0.1", port, wo);
        if (!stats.reject_reason.empty()) {
          throw std::runtime_error("rejected: " + stats.reject_reason);
        }
      } catch (const std::exception& e) {
        worker_errors[i] = e.what();
        coordinator.request_cancel();
      }
      worker_wall[i] = seconds_between(start, Clock::now());
    });
  }
  for (auto& w : fleet) w.join();
  serve.join();
  for (const auto& e : worker_errors) {
    if (!e.empty()) throw std::runtime_error("fleet worker failed: " + e);
  }
  if (!serve_error.empty()) throw std::runtime_error("coordinator failed: " + serve_error);
  t.first = probe.first_batch;
  for (const double w : worker_wall) t.worker_wall_s += w;
  return t;
}

}  // namespace ffis::suite
