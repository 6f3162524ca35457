#pragma once
// A fault signature bundles everything the fault injector needs to plant one
// fault (paper Figure 4): the fault model, the FUSE primitive hosting it, and
// the model-specific feature parameters.

#include <cstdint>
#include <string>
#include <string_view>

#include "ffis/faults/fault_model.hpp"
#include "ffis/vfs/block_device.hpp"
#include "ffis/vfs/file_system.hpp"

namespace ffis::faults {

/// Lookups in the model table (fault_signature.cpp).  parse_fault_model
/// accepts any of a model's three spellings; media_fault_kind throws
/// std::invalid_argument for syscall-level models.
[[nodiscard]] std::string_view fault_model_name(FaultModel m) noexcept;
[[nodiscard]] FaultModel parse_fault_model(std::string_view name);
[[nodiscard]] bool is_media_model(FaultModel m) noexcept;
[[nodiscard]] vfs::MediaFault media_fault_kind(FaultModel m);

struct FaultSignature {
  FaultModel model = FaultModel::BitFlip;
  /// The file-system primitive hosting the fault.  The paper implements all
  /// three models on FFIS_write; mknod/chmod are also supported.
  vfs::Primitive primitive = vfs::Primitive::Pwrite;
  BitFlipSpec bit_flip{};
  ShornSpec shorn{};
  /// Media-level models only (TORN_SECTOR / LATENT_SECTOR_ERROR /
  /// MISDIRECTED_WRITE / BIT_ROT): device geometry and scrub toggle.
  MediaSpec media{};

  /// Renders e.g. "BIT_FLIP@pwrite{width=2}".
  [[nodiscard]] std::string to_string() const;
};

/// Parses a signature from "MODEL@primitive{key=value,...}" or a bare model
/// name such as "BF" (defaulting to pwrite and paper parameters); throws
/// std::invalid_argument naming the offending token.
[[nodiscard]] FaultSignature parse_fault_signature(const std::string& text);

}  // namespace ffis::faults
