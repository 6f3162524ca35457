#include "ffis/faults/media_faults.hpp"

namespace ffis::faults {

vfs::BlockDevice::Options media_device_options(const FaultSignature& signature) noexcept {
  vfs::BlockDevice::Options options;
  if (is_media_model(signature.model)) {
    options.sector_bytes = signature.media.sector_bytes;
    options.scrub_on_read = signature.media.scrub_on_read;
  }
  return options;
}

std::shared_ptr<vfs::BlockDevice> mount_media_device(const FaultSignature& signature,
                                                     vfs::MemFs& backing,
                                                     FaultingFs& instrument) {
  auto device = std::make_shared<vfs::BlockDevice>(media_device_options(signature));
  backing.set_media(device);
  instrument.gate_media(device.get());
  return device;
}

vfs::BlockDevice::ArmSpec media_arm_spec(const FaultSignature& signature,
                                         std::uint64_t target_instance,
                                         std::uint64_t feature_seed) {
  vfs::BlockDevice::ArmSpec spec;
  spec.fault = media_fault_kind(signature.model);
  spec.target_sector_write = target_instance;
  spec.seed = feature_seed;
  spec.rot_width = signature.media.width;
  return spec;
}

InjectionRecord media_injection_record(const FaultSignature& signature,
                                       const vfs::BlockDevice& device) {
  InjectionRecord record;
  record.signature = signature;
  if (!device.fired()) return record;
  const vfs::BlockDevice::Record& fired = device.record();
  record.instance = fired.instance;
  record.offset = fired.offset;
  record.original_size = device.options().sector_bytes;
  record.corrupted_bytes = fired.corrupted_bytes;
  record.flipped_bit = fired.flipped_bit;
  record.features_drawn = device.features_drawn();
  // A torn sector reads back like a shorn tail: stale bytes from the torn
  // point on.  Reuse the diagnostic field.
  if (fired.fault == vfs::MediaFault::TornSector) {
    record.shorn_from = device.options().sector_bytes - fired.corrupted_bytes;
  }
  return record;
}

}  // namespace ffis::faults
