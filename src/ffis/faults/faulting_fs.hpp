#pragma once
// FaultingFs — the FFISFS stand-in.
//
// A decorator that counts dynamic executions of one target primitive and, on
// the N-th execution (chosen uniformly by the injector), mutates the call's
// arguments according to the fault signature before forwarding them to the
// backing file system — exactly the instrumentation the paper shows in
// Figure 3 (modify BUFFER/SIZE/OFFSET of FFIS_write before pwrite; modify
// MODE/DEV of FFIS_mknod before mknod).
//
// The same class serves the I/O-profiling phase: leave it unarmed and read
// `executions()` after a fault-free run.
//
// `set_enabled(false)` gates both counting and injection so applications can
// scope instrumentation to a phase (used for Montage's per-stage campaigns).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

#include "ffis/faults/fault_signature.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/passthrough_fs.hpp"

namespace ffis::faults {

/// What actually happened when the fault fired (for analysis/logging).
struct InjectionRecord {
  FaultSignature signature;
  std::uint64_t instance = 0;        ///< dynamic index of the corrupted call
  std::uint64_t offset = 0;          ///< file offset of the corrupted pwrite
  std::size_t original_size = 0;     ///< bytes the application asked to write
  std::size_t corrupted_bytes = 0;   ///< bytes that differ on the device
  std::optional<std::size_t> flipped_bit;
  std::optional<std::size_t> shorn_from;
  bool dropped = false;
  /// The fault advanced its feature RNG (bit position, shorn split, garbage
  /// bytes, victim sector).  When false the run depended on its instance
  /// alone, so any feature seed would have reproduced it bit for bit.
  bool features_drawn = false;
};

/// The silent syscall-level pwrite fault (BIT_FLIP, SHORN_WRITE,
/// DROPPED_WRITE) applied to the buffer `buf` an application asked to
/// write: returns the mutation plan and fills `record`'s mutation fields
/// (flipped_bit, shorn_from, dropped, corrupted_bytes).  Features are drawn
/// from `rng`.  FaultingFs::pwrite and the synthesis of unobserved runs
/// (core::FaultInjector::synthesize) both corrupt writes through this one
/// function.  Throws std::logic_error for any other model.
[[nodiscard]] WriteMutation mutate_write(const FaultSignature& signature, util::Rng& rng,
                                         util::ByteSpan buf, InjectionRecord& record);

class FaultingFs final : public vfs::PassthroughFs {
 public:
  explicit FaultingFs(vfs::FileSystem& inner) noexcept : PassthroughFs(inner) {}

  /// Sets the fault signature without arming.  Used by the I/O-profiling
  /// phase, which needs the target primitive counted but no fault planted.
  void configure(const FaultSignature& signature);

  /// Arms the injector: the `target_instance`-th (0-based) execution of
  /// signature.primitive will be corrupted.  `seed` drives the random
  /// feature choices (bit position, garbage bytes).
  void arm(const FaultSignature& signature, std::uint64_t target_instance,
           std::uint64_t seed);

  /// Disarms; counting continues.
  void disarm() noexcept;

  /// Gates instrumentation entirely (counting + injection).  A gated media
  /// device (gate_media) follows the same window, so stage-scoped campaigns
  /// scope sector-write counting exactly like primitive counting.
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
    if (media_gate_ != nullptr) media_gate_->set_enabled(enabled);
  }
  [[nodiscard]] bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  /// Slaves a run's vfs::BlockDevice to this instrument's enable gate.  The
  /// device injects *beneath* this decorator (its faults are invisible
  /// here); only the stage-scoping window is shared, via the existing
  /// RunContext::enter_stage / leave_stage plumbing.  Pass nullptr to
  /// detach.  The device must outlive the gate.
  void gate_media(vfs::BlockDevice* device) noexcept {
    media_gate_ = device;
    if (media_gate_ != nullptr) media_gate_->set_enabled(enabled());
  }

  /// Dynamic executions of the target primitive observed so far (only while
  /// enabled).
  [[nodiscard]] std::uint64_t executions() const noexcept {
    return executions_.load(std::memory_order_relaxed);
  }
  void reset_executions() noexcept { executions_.store(0, std::memory_order_relaxed); }

  [[nodiscard]] bool fired() const noexcept { return fired_.load(std::memory_order_relaxed); }
  /// Record of the fired injection; only meaningful when fired().
  [[nodiscard]] InjectionRecord record() const;

  // Instrumented primitives.
  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override;
  /// Read-side faults: FFIS can also plant faults "into the data returned
  /// from the underlying file system" (paper abstract).  BIT_FLIP corrupts
  /// the returned buffer; SHORN_WRITE truncates the read (partial sector
  /// readback); DROPPED_WRITE returns 0 bytes (the read silently fails).
  std::size_t pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                    std::uint64_t offset) override;
  void mknod(const std::string& path, std::uint32_t mode) override;
  void chmod(const std::string& path, std::uint32_t mode) override;

 private:
  /// Returns true when this call is the armed target instance.
  bool step(vfs::Primitive p) noexcept;
  /// The armed fault on the mode argument of mknod / chmod (`op`): returns
  /// the mode to forward, nullopt when the call is dropped; throws for
  /// IO_ERROR.
  std::optional<std::uint32_t> corrupt_mode(std::string_view op, const std::string& path,
                                            std::uint32_t mode);

  std::atomic<bool> enabled_{true};
  vfs::BlockDevice* media_gate_ = nullptr;  ///< see gate_media()
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<bool> armed_{false};
  std::atomic<bool> fired_{false};
  std::uint64_t target_instance_ = 0;

  mutable std::mutex mutex_;  // guards signature_, seed_, rng_, record_
  FaultSignature signature_{};
  std::uint64_t seed_ = 0;
  util::Rng rng_{};
  InjectionRecord record_{};
};

}  // namespace ffis::faults
