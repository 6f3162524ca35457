#include "ffis/analysis/metadata_sweep.hpp"

#include <stdexcept>

#include "ffis/core/fault_injector.hpp"
#include "ffis/util/rng.hpp"
#include "ffis/util/thread_pool.hpp"
#include "ffis/vfs/mem_fs.hpp"

namespace ffis::analysis {

std::map<std::string, core::OutcomeTally> MetadataSweepResult::tally_by_field(
    const h5::FieldMap& map) const {
  std::map<std::string, core::OutcomeTally> out;
  for (const auto& c : cases) {
    const h5::FieldEntry* entry = map.find(c.offset);
    out[entry != nullptr ? entry->name : "<unmapped>"].add(c.outcome);
  }
  return out;
}

std::map<std::string, core::OutcomeTally> MetadataSweepResult::tally_by_class(
    const h5::FieldMap& map) const {
  std::map<std::string, core::OutcomeTally> out;
  for (const auto& c : cases) {
    const h5::FieldEntry* entry = map.find(c.offset);
    out[entry != nullptr ? std::string(h5::field_class_name(entry->cls)) : "<unmapped>"]
        .add(c.outcome);
  }
  return out;
}

void corrupt_metadata_byte(vfs::FileSystem& fs, const MetadataSweepConfig& config,
                           std::uint64_t offset) {
  constexpr std::size_t kFlipWidth = 2;
  util::Rng rng(config.seed ^ (offset * 0x9e3779b97f4a7c15ULL));
  const std::size_t bit = rng.uniform(8 - kFlipWidth + 1);
  util::Bytes byte(1);
  vfs::File file(fs, config.target_path, vfs::OpenMode::ReadWrite);
  if (file.pread(byte, offset) != byte.size()) {
    throw std::out_of_range("metadata_sweep: offset past end of file");
  }
  util::flip_bits(byte, bit, kFlipWidth);
  file.pwrite(byte, offset);
}

MetadataSweepResult metadata_sweep(const core::Application& app, std::uint64_t app_seed,
                                   const MetadataSweepConfig& config) {
  if (config.metadata_bytes == 0) {
    throw std::invalid_argument("metadata_sweep: metadata_bytes must be > 0");
  }

  std::shared_ptr<const vfs::MemFs> golden_tree;
  const core::AnalysisResult golden =
      core::FaultInjector::run_golden(app, app_seed, &golden_tree);
  vfs::MemFs probe = golden_tree->fork(vfs::MemFs::Concurrency::SingleThread);
  if (!probe.exists(config.target_path)) {
    throw std::invalid_argument("metadata_sweep: target file not in golden tree: " +
                                config.target_path);
  }
  if (probe.stat(config.target_path).size < config.metadata_bytes) {
    throw std::invalid_argument("metadata_sweep: file smaller than metadata range");
  }

  MetadataSweepResult result;
  result.cases.resize(config.metadata_bytes);

  util::ThreadPool pool;
  util::parallel_for(
      pool, config.metadata_bytes,
      [&](std::size_t offset) {
        ByteCase& out = result.cases[offset];
        out.offset = offset;
        vfs::MemFs fs = golden_tree->fork(vfs::MemFs::Concurrency::SingleThread);
        corrupt_metadata_byte(fs, config, offset);
        try {
          out.outcome = core::classify_outcome(app, golden, app.analyze(fs));
        } catch (const std::exception& e) {
          out.outcome = core::Outcome::Crash;
          out.crash_reason = e.what();
        }
      },
      /*chunk=*/8);

  for (const auto& c : result.cases) result.tally.add(c.outcome);
  return result;
}

}  // namespace ffis::analysis
