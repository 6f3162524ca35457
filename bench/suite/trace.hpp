#pragma once
// The traced pass: per-layer spans recorded from outside the library.
//
// Replica rebuilds core::FaultInjector::execute_at from public calls only —
// RunScratch lease, BlockDevice mount and arm, FaultingFs arm, run/run_from,
// MemFs::diff_tree, analyze_dirty, classify — and times each call.  Two
// SpanFs decorators sit directly above and below the FaultingFs, so the time
// an application spends inside the instrumentation and inside the store is
// measured where it happens; a third wraps the store during analysis.  A
// replica is only worth its numbers while it does exactly what the injector
// does, so every traced run is checked against FaultInjector::execute at the
// same seed (outcome and every non-arena FsStats counter).

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "ffis/core/application.hpp"
#include "ffis/core/checkpoint.hpp"
#include "ffis/core/fault_injector.hpp"
#include "ffis/core/run_scratch.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/faults/media_faults.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/passthrough_fs.hpp"

namespace ffis::suite {

/// Time and calls accumulated by one SpanFs over a run.
struct SpanTotal {
  std::chrono::steady_clock::duration time{};
  std::uint64_t calls = 0;
};

/// A PassthroughFs that times every call into the layer beneath it.
class SpanFs final : public vfs::PassthroughFs {
 public:
  SpanFs(vfs::FileSystem& inner, SpanTotal& total) noexcept
      : PassthroughFs(inner), total_(total) {}

  vfs::FileHandle open(const std::string& path, vfs::OpenMode mode) override {
    const Span s(total_);
    return PassthroughFs::open(path, mode);
  }
  void close(vfs::FileHandle fh) override {
    const Span s(total_);
    PassthroughFs::close(fh);
  }
  std::size_t pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                    std::uint64_t offset) override {
    const Span s(total_);
    return PassthroughFs::pread(fh, buf, offset);
  }
  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override {
    const Span s(total_);
    return PassthroughFs::pwrite(fh, buf, offset);
  }
  void mknod(const std::string& path, std::uint32_t mode) override {
    const Span s(total_);
    PassthroughFs::mknod(path, mode);
  }
  void chmod(const std::string& path, std::uint32_t mode) override {
    const Span s(total_);
    PassthroughFs::chmod(path, mode);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    const Span s(total_);
    PassthroughFs::truncate(path, size);
  }
  void ftruncate(vfs::FileHandle fh, std::uint64_t size) override {
    const Span s(total_);
    PassthroughFs::ftruncate(fh, size);
  }
  void unlink(const std::string& path) override {
    const Span s(total_);
    PassthroughFs::unlink(path);
  }
  void mkdir(const std::string& path) override {
    const Span s(total_);
    PassthroughFs::mkdir(path);
  }
  void rename(const std::string& from, const std::string& to) override {
    const Span s(total_);
    PassthroughFs::rename(from, to);
  }
  vfs::FileStat stat(const std::string& path) override {
    const Span s(total_);
    return PassthroughFs::stat(path);
  }
  bool exists(const std::string& path) override {
    const Span s(total_);
    return PassthroughFs::exists(path);
  }
  std::vector<std::string> readdir(const std::string& path) override {
    const Span s(total_);
    return PassthroughFs::readdir(path);
  }
  void fsync(vfs::FileHandle fh) override {
    const Span s(total_);
    PassthroughFs::fsync(fh);
  }

 private:
  /// Adds its lifetime to the total, on the exception path too.
  class Span {
   public:
    explicit Span(SpanTotal& total) noexcept
        : total_(total), start_(std::chrono::steady_clock::now()) {}
    ~Span() {
      total_.time += std::chrono::steady_clock::now() - start_;
      ++total_.calls;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    SpanTotal& total_;
    std::chrono::steady_clock::time_point start_;
  };

  SpanTotal& total_;
};

/// One traced run's spans, in microseconds.  Phases nest as
///   total > lease | execute > intercept > store | diff | analyze > read |
///           classify | release
struct RunSpans {
  double total_us = 0, lease_us = 0, execute_us = 0, intercept_us = 0, store_us = 0,
         store_calls = 0, diff_us = 0, dirty_bytes = 0, analyze_us = 0, read_us = 0,
         read_calls = 0, classify_us = 0, release_us = 0;

  /// Share of the run the top-level phase spans account for.
  [[nodiscard]] double covered_us() const {
    return lease_us + execute_us + diff_us + analyze_us + classify_us + release_us;
  }
};

/// The per-run half of FaultInjector, rebuilt from public calls with spans.
/// Shares the injector's prepared state: golden analysis, golden tree and
/// checkpoint come from the same objects the injector was prepared with.
class Replica {
 public:
  struct Setup {
    const core::Application* app = nullptr;
    faults::FaultSignature signature{};
    std::uint64_t app_seed = 0;
    int stage = -1;
    std::uint64_t primitive_count = 0;
    /// RunScratch pool key; the injector's own (checkpoint or injector
    /// address), so both draw the same pooled store.
    const void* scratch_key = nullptr;
    std::shared_ptr<const core::Checkpoint> checkpoint;  ///< null: full run
    std::shared_ptr<const core::AnalysisResult> golden;
    std::shared_ptr<const vfs::MemFs> golden_tree;
    std::shared_ptr<const core::GoldenArtifacts> artifacts;
  };

  explicit Replica(Setup setup) : s_(std::move(setup)) {}

  [[nodiscard]] core::RunResult run(std::uint64_t run_seed, RunSpans& sp) const {
    using Clock = std::chrono::steady_clock;
    const auto us = [](Clock::duration d) {
      return std::chrono::duration<double, std::micro>(d).count();
    };
    const auto t0 = Clock::now();
    util::Rng rng(run_seed);
    const std::uint64_t instance = rng.uniform(s_.primitive_count);
    const std::uint64_t feature_seed = rng();

    core::RunResult result;
    SpanTotal above_total, store_total, read_total;
    Clock::time_point t_lease, t_exec, t_diff, t_analyze, t_classify, t_stats;
    {
      auto lease = core::RunScratch::current().acquire(
          s_.scratch_key, s_.checkpoint ? &s_.checkpoint->fs() : nullptr,
          vfs::MemFs::Options{});
      vfs::MemFs& backing = lease.fs();
      const bool media = faults::is_media_model(s_.signature.model);
      std::shared_ptr<vfs::BlockDevice> device;
      if (media) {
        device = std::make_shared<vfs::BlockDevice>(faults::media_device_options(s_.signature));
        backing.set_media(device);
      }
      SpanFs below(backing, store_total);
      faults::FaultingFs instrument(below);
      SpanFs above(instrument, above_total);
      if (device != nullptr) instrument.gate_media(device.get());
      if (media) {
        instrument.configure(s_.signature);
        device->arm(faults::media_arm_spec(s_.signature, instance, feature_seed));
      } else {
        instrument.arm(s_.signature, instance, feature_seed);
      }
      if (s_.stage > 0) instrument.set_enabled(false);
      t_lease = Clock::now();

      const core::RunContext ctx{.fs = above,
                                 .app_seed = s_.app_seed,
                                 .instrumented_stage = s_.stage,
                                 .instrument = &instrument};
      bool crashed = false;
      try {
        if (s_.checkpoint) {
          s_.app->run_from(ctx, s_.checkpoint->stage());
        } else {
          s_.app->run(ctx);
        }
      } catch (const std::exception& e) {
        result.outcome = core::Outcome::Crash;
        result.crash_reason = e.what();
        crashed = true;
      }
      result.fault_fired = media ? device->fired() : instrument.fired();
      t_exec = t_diff = t_analyze = t_classify = Clock::now();

      if (!crashed) {
        const vfs::FsDiff diff = backing.diff_tree(*s_.golden_tree);
        t_diff = t_analyze = t_classify = Clock::now();
        for (const auto& f : diff.changed) {
          for (const auto& r : f.ranges) sp.dirty_bytes += static_cast<double>(r.length);
        }
        if (diff.empty()) {
          result.outcome = core::Outcome::Benign;
          result.analyze_skipped = true;
        } else {
          try {
            SpanFs reads(backing, read_total);
            result.analysis =
                s_.app->analyze_dirty(reads, diff, *s_.golden, s_.artifacts.get());
          } catch (const std::exception& e) {
            result.outcome = core::Outcome::Crash;
            result.crash_reason = e.what();
          }
          t_analyze = t_classify = Clock::now();
          if (result.analysis.has_value()) {
            result.outcome = result.analysis->comparison_blob == s_.golden->comparison_blob
                                 ? core::Outcome::Benign
                                 : s_.app->classify(*s_.golden, *result.analysis);
            t_classify = Clock::now();
          }
        }
      }
      result.fs_stats = backing.stats();
      if (result.fs_stats.crc_detected > 0) result.outcome = core::Outcome::Detected;
      t_stats = Clock::now();
    }
    const auto t_end = Clock::now();

    sp.total_us = us(t_end - t0);
    sp.lease_us = us(t_lease - t0);
    sp.execute_us = us(t_exec - t_lease);
    sp.intercept_us = us(above_total.time);
    sp.store_us = us(store_total.time);
    sp.store_calls = static_cast<double>(store_total.calls);
    sp.diff_us = us(t_diff - t_exec);
    sp.analyze_us = us(t_analyze - t_diff);
    sp.read_us = us(read_total.time);
    sp.read_calls = static_cast<double>(read_total.calls);
    sp.classify_us = us(t_classify - t_analyze);
    sp.release_us = us(t_end - t_stats);
    return result;
  }

 private:
  Setup s_;
};

/// Empty when the replica agrees with the injector's run; otherwise names
/// the first field that differs.  Arena counters are excluded: they depend
/// on how warm the thread's arena is, not on what the run did.
inline std::string replica_mismatch(const core::RunResult& real, const core::RunResult& rep) {
  if (real.outcome != rep.outcome) {
    return std::string("outcome ") + std::string(core::outcome_name(real.outcome)) +
           " vs " + std::string(core::outcome_name(rep.outcome));
  }
  if (real.fault_fired != rep.fault_fired) return "fault_fired";
  if (real.analyze_skipped != rep.analyze_skipped) return "analyze_skipped";
  const vfs::FsStats& a = real.fs_stats;
  const vfs::FsStats& b = rep.fs_stats;
  if (a.chunks_allocated != b.chunks_allocated) return "chunks_allocated";
  if (a.chunk_detaches != b.chunk_detaches) return "chunk_detaches";
  if (a.cow_bytes_copied != b.cow_bytes_copied) return "cow_bytes_copied";
  if (a.pread_calls != b.pread_calls) return "pread_calls";
  if (a.bytes_read != b.bytes_read) return "bytes_read";
  if (a.sectors_faulted != b.sectors_faulted) return "sectors_faulted";
  if (a.crc_detected != b.crc_detected) return "crc_detected";
  return {};
}

}  // namespace ffis::suite
