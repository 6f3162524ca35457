#include "ffis/faults/faulting_fs.hpp"

#include <stdexcept>

#include "ffis/util/logging.hpp"

namespace ffis::faults {

WriteMutation mutate_write(const FaultSignature& signature, util::Rng& rng,
                           util::ByteSpan buf, InjectionRecord& record) {
  WriteMutation mut;
  switch (signature.model) {
    case FaultModel::BitFlip:
      mut = apply_bit_flip(signature.bit_flip, rng, buf);
      break;
    case FaultModel::ShornWrite:
      mut = apply_shorn_write(signature.shorn, rng, buf);
      break;
    case FaultModel::DroppedWrite:
      mut = apply_dropped_write();
      break;
    default:
      throw std::logic_error("mutate_write: " + std::string(fault_model_name(signature.model)) +
                             " is not a silent pwrite fault");
  }
  record.flipped_bit = mut.flipped_bit;
  record.shorn_from = mut.shorn_from;
  record.dropped = mut.dropped;
  record.corrupted_bytes = mut.dropped ? buf.size() : util::count_diff_bytes(buf, mut.data);
  return mut;
}

void FaultingFs::configure(const FaultSignature& signature) {
  std::lock_guard lock(mutex_);
  signature_ = signature;
}

void FaultingFs::arm(const FaultSignature& signature, std::uint64_t target_instance,
                     std::uint64_t seed) {
  if (is_media_model(signature.model)) {
    // Media-level models inject beneath this decorator; arm the run's
    // vfs::BlockDevice instead (core::FaultInjector does).
    throw std::logic_error("FaultingFs: media-level model " +
                           std::string(fault_model_name(signature.model)) +
                           " cannot be armed at the syscall layer");
  }
  std::lock_guard lock(mutex_);
  signature_ = signature;
  seed_ = seed;
  rng_ = util::Rng(seed);
  record_ = InjectionRecord{};
  record_.signature = signature;
  target_instance_ = target_instance;
  fired_.store(false, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_relaxed);
}

void FaultingFs::disarm() noexcept { armed_.store(false, std::memory_order_relaxed); }

InjectionRecord FaultingFs::record() const {
  std::lock_guard lock(mutex_);
  InjectionRecord out = record_;
  out.features_drawn = fired() && rng_ != util::Rng(seed_);
  return out;
}

bool FaultingFs::step(vfs::Primitive p) noexcept {
  if (!enabled_.load(std::memory_order_relaxed)) return false;
  bool is_target_primitive;
  {
    // signature_.primitive is stable while armed; reading it unlocked would
    // race with arm() from another thread only in misuse scenarios, but the
    // counter must always advance for the profiler, so take the cheap path:
    std::lock_guard lock(mutex_);
    is_target_primitive = (signature_.primitive == p);
  }
  // The profiler counts the target primitive whether or not we are armed;
  // default signature targets pwrite, matching the paper's experiments.
  if (!is_target_primitive) return false;
  const std::uint64_t index = executions_.fetch_add(1, std::memory_order_relaxed);
  if (!armed_.load(std::memory_order_relaxed)) return false;
  if (index != target_instance_) return false;
  if (fired_.exchange(true, std::memory_order_relaxed)) return false;
  return true;
}

std::size_t FaultingFs::pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) {
  if (!step(vfs::Primitive::Pwrite)) return PassthroughFs::pwrite(fh, buf, offset);

  std::lock_guard lock(mutex_);
  record_.instance = target_instance_;
  record_.offset = offset;
  record_.original_size = buf.size();
  if (signature_.model == FaultModel::IoError) {
    // Class (a): the failure is reported, not silent.
    record_.corrupted_bytes = 0;
    throw vfs::VfsError(vfs::VfsError::Code::IoError,
                        "injected I/O error on pwrite (device failure detected)");
  }

  const WriteMutation mut = mutate_write(signature_, rng_, buf, record_);
  if (mut.dropped) {
    // The write never reaches the device, yet the application sees success
    // for the full requested size.
    util::log_debug("DROPPED_WRITE at offset {} size {}", offset, buf.size());
    return buf.size();
  }
  util::ByteSpan forward(mut.data);
  if (mut.forward_only) forward = forward.first(*mut.forward_only);
  const std::size_t written = PassthroughFs::pwrite(fh, forward, offset);
  // Report the original size: the failure is silent from the caller's view.
  return written >= forward.size() ? buf.size() : written;
}

std::size_t FaultingFs::pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                              std::uint64_t offset) {
  if (!step(vfs::Primitive::Pread)) return PassthroughFs::pread(fh, buf, offset);

  std::lock_guard lock(mutex_);
  record_.instance = target_instance_;
  record_.offset = offset;
  if (signature_.model == FaultModel::IoError) {
    throw vfs::VfsError(vfs::VfsError::Code::IoError,
                        "injected I/O error on pread (uncorrectable bit corruption)");
  }
  const std::size_t got = PassthroughFs::pread(fh, buf, offset);
  record_.original_size = got;

  switch (signature_.model) {
    case FaultModel::BitFlip: {
      if (got > 0) {
        const std::size_t bit = rng_.uniform(got * 8);
        record_.corrupted_bytes = util::flip_bits(buf.first(got), bit, signature_.bit_flip.width);
        record_.flipped_bit = bit;
      }
      return got;
    }
    case FaultModel::ShornWrite: {
      // Partial sector readback: only the leading sectors arrive.
      std::size_t keep = got * signature_.shorn.completed_eighths / 8;
      keep -= keep % signature_.shorn.sector_bytes;
      record_.shorn_from = keep;
      record_.corrupted_bytes = got - keep;
      return keep;
    }
    case FaultModel::DroppedWrite: {
      // The read silently returns nothing.
      record_.dropped = true;
      record_.corrupted_bytes = got;
      return 0;
    }
    default:  // IO_ERROR threw before the backing read
      return got;
  }
}

std::optional<std::uint32_t> FaultingFs::corrupt_mode(std::string_view op,
                                                     const std::string& path,
                                                     std::uint32_t mode) {
  std::lock_guard lock(mutex_);
  record_.instance = target_instance_;
  record_.original_size = sizeof mode;
  std::uint32_t corrupted = mode;
  switch (signature_.model) {
    case FaultModel::BitFlip: {
      const std::uint32_t bit = static_cast<std::uint32_t>(rng_.uniform(31));
      const std::uint32_t mask = (signature_.bit_flip.width >= 2) ? (3u << bit) : (1u << bit);
      corrupted ^= mask;
      record_.flipped_bit = bit;
      break;
    }
    case FaultModel::ShornWrite:
      // Mode argument loses its high bits (partial metadata write).
      corrupted &= 0xff;
      record_.shorn_from = 1;
      break;
    case FaultModel::DroppedWrite:
      // The operation is silently skipped.
      record_.dropped = true;
      return std::nullopt;
    case FaultModel::IoError:
      throw vfs::VfsError(vfs::VfsError::Code::IoError,
                          "injected I/O error on " + std::string(op) + ": " + path);
    default:
      break;
  }
  record_.corrupted_bytes = (corrupted == mode) ? 0 : 1;
  return corrupted;
}

void FaultingFs::mknod(const std::string& path, std::uint32_t mode) {
  if (!step(vfs::Primitive::Mknod)) return PassthroughFs::mknod(path, mode);
  if (const auto corrupted = corrupt_mode("mknod", path, mode)) {
    PassthroughFs::mknod(path, *corrupted);
  }
}

void FaultingFs::chmod(const std::string& path, std::uint32_t mode) {
  if (!step(vfs::Primitive::Chmod)) return PassthroughFs::chmod(path, mode);
  if (const auto corrupted = corrupt_mode("chmod", path, mode)) {
    PassthroughFs::chmod(path, *corrupted);
  }
}

}  // namespace ffis::faults
