#pragma once
// Media-level fault models: the bridge between the fault-signature layer and
// vfs::BlockDevice.
//
// TORN_SECTOR, LATENT_SECTOR_ERROR, MISDIRECTED_WRITE and BIT_ROT extend
// FaultModel below the file-system call boundary: they are injected at
// sector granularity beneath the write path, where FaultingFs cannot see
// them (the decorator forwards an untouched pwrite; the device deviates).
// The injector therefore arms the run's BlockDevice instead of its
// FaultingFs, draws the target instance from the profiled *sector-write*
// count, and reads the fired record back from the device.
//
// Signature dialect (parse_fault_signature):
//
//   BIT_ROT@pwrite{sector=512,scrub=on,width=1}
//   TORN_SECTOR@pwrite{sector=4096,scrub=off}
//   LATENT_SECTOR_ERROR@pwrite          (short form: LSE)
//   MISDIRECTED_WRITE@pwrite            (short form: MW)
//
// `sector` is 512 or 4096; `scrub` toggles CRC verification on read (the
// difference between a Detected outcome and letting the corruption flow to
// the Sdc/Benign classifier); `width` (BIT_ROT only) is the number of
// consecutive bits that decay; any other key is rejected.  Each model's row
// of the model table (faults/fault_signature.cpp) names its keys and the
// vfs::MediaFault hosting it.  Media models host on pwrite only — the
// device sits beneath the data write path.
//
// Synthesis: the profiling pass records a sector site per sector-write
// instance (faults::WriteObserver).  A run whose sector nothing observes
// after the write is not executed: core::FaultInjector::synthesize arms a
// device on a fork of the golden tree with the recorded file size
// (vfs::BlockDevice::ArmSpec::size_after), zeroes the slice and rewrites
// it through the device, so BlockDevice::inject replays the fault and
// seeds the registry, and classifies the fork through that device
// (docs/ARCHITECTURE.md, "Synthesis").

#include <cstdint>
#include <memory>

#include "ffis/faults/fault_signature.hpp"
#include "ffis/faults/faulting_fs.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::faults {

/// Device geometry/scrub options for a signature (defaults for non-media
/// signatures, e.g. the force-block-device A/B probe).
[[nodiscard]] vfs::BlockDevice::Options media_device_options(
    const FaultSignature& signature) noexcept;

/// Mounts an unarmed BlockDevice with `signature`'s options beneath
/// `backing` and puts it under `instrument`'s stage gate, so the device
/// counts exactly the sector writes of the instrumented window.  Returns the
/// device (arm it for a media fault; leave it unarmed to count or to probe).
std::shared_ptr<vfs::BlockDevice> mount_media_device(const FaultSignature& signature,
                                                     vfs::MemFs& backing,
                                                     FaultingFs& instrument);

/// Arming parameters for the run's device: the uniform `target_instance`
/// indexes sector writes, `feature_seed` drives the random features.
[[nodiscard]] vfs::BlockDevice::ArmSpec media_arm_spec(const FaultSignature& signature,
                                                       std::uint64_t target_instance,
                                                       std::uint64_t feature_seed);

/// Translates the device's fired record into the harness-wide
/// InjectionRecord shape (offset = faulted sector's byte offset).
[[nodiscard]] InjectionRecord media_injection_record(const FaultSignature& signature,
                                                     const vfs::BlockDevice& device);

}  // namespace ffis::faults
