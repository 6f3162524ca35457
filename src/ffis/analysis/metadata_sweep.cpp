#include "ffis/analysis/metadata_sweep.hpp"

#include <stdexcept>

#include "ffis/core/checkpoint.hpp"
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

MetadataSweepResult metadata_sweep(const core::Application& app, std::uint64_t app_seed,
                                   const MetadataSweepConfig& config) {
  if (config.metadata_bytes == 0) {
    throw std::invalid_argument("metadata_sweep: metadata_bytes must be > 0");
  }

  // Golden run: produce and snapshot the file tree, and the golden analysis.
  vfs::MemFs golden_fs;
  core::run_fault_free(app, app_seed, golden_fs, 0, app.stage_count());
  const core::AnalysisResult golden = app.analyze(golden_fs);
  const vfs::TreeSnapshot snapshot = vfs::snapshot_tree(golden_fs);

  // Locate the target file in the snapshot once.
  const util::Bytes* golden_file = nullptr;
  for (const auto& [path, bytes] : snapshot) {
    if (path == config.target_path) golden_file = &bytes;
  }
  if (golden_file == nullptr) {
    throw std::invalid_argument("metadata_sweep: target file not in golden tree: " +
                                config.target_path);
  }
  if (golden_file->size() < config.metadata_bytes) {
    throw std::invalid_argument("metadata_sweep: file smaller than metadata range");
  }

  MetadataSweepResult result;
  result.cases.resize(config.metadata_bytes);

  util::ThreadPool pool(config.threads);
  util::parallel_for(
      pool, config.metadata_bytes,
      [&](std::size_t offset) {
        ByteCase& out = result.cases[offset];
        out.offset = offset;

        // Fresh "device" with the golden tree, then corrupt one byte of the
        // metadata block: flip_width consecutive bits at a seeded position
        // within the byte.
        vfs::MemFs fs;
        vfs::restore_tree(fs, snapshot);
        util::Bytes corrupted = *golden_file;
        util::Rng rng(config.seed ^ (offset * 0x9e3779b97f4a7c15ULL));
        const std::size_t max_start = (config.flip_width >= 8) ? 0 : 8 - config.flip_width;
        const std::size_t bit = offset * 8 + rng.uniform(max_start + 1);
        util::flip_bits(corrupted, bit, config.flip_width);
        vfs::write_file(fs, config.target_path, corrupted);

        try {
          const core::AnalysisResult faulty = app.analyze(fs);
          if (faulty.comparison_blob == golden.comparison_blob) {
            out.outcome = core::Outcome::Benign;
          } else {
            out.outcome = app.classify(golden, faulty);
          }
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
