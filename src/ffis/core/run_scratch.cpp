#include "ffis/core/run_scratch.hpp"

#include <algorithm>
#include <utility>

namespace ffis::core {

RunScratch& RunScratch::current() {
  thread_local RunScratch scratch;
  return scratch;
}

RunScratch::Lease RunScratch::acquire(const void* key, const vfs::MemFs* base,
                                      const vfs::MemFs::Options& options) {
  if (!arena_) arena_ = std::make_shared<vfs::ExtentArena>();

  Entry entry;
  // A base-less entry resets to its own pristine tree, so it serves only
  // the geometry it was built with: a key can outlive its owner (an
  // injector freed, and another built at its address with other options).
  const auto pooled = std::find_if(pool_.begin(), pool_.end(), [&](const Entry& e) {
    return e.key == key &&
           (base != nullptr || e.pristine->chunk_size() == options.chunk_size);
  });
  if (pooled != pool_.end()) {
    entry = std::move(*pooled);
    pool_.erase(pooled);
    // The previous lease already dropped payloads and rewound the arena;
    // resetting re-shares the base's extents COW, exactly like a fork.
    entry.fs->reset_from(base != nullptr ? *base : *entry.pristine);
    return Lease(this, std::move(entry));
  }

  entry.key = key;
  if (base != nullptr) {
    entry.fs = base->fork_unique(vfs::MemFs::Concurrency::SingleThread, arena_);
  } else {
    vfs::MemFs::Options run_options = vfs::MemFs::single_thread(options);
    // The pristine twin is the reset target: never written, so it needs no
    // arena (and must not hold one — it outlives every epoch rewind).
    entry.pristine = std::make_unique<vfs::MemFs>(run_options);
    run_options.arena = arena_;
    entry.fs = std::make_unique<vfs::MemFs>(std::move(run_options));
  }
  return Lease(this, std::move(entry));
}

void RunScratch::release(Entry entry) {
  // Order matters: dropping the payloads releases this run's extent
  // references, which is what lets the arena rewind (epoch use_count back
  // to 1) instead of abandoning its slabs.
  entry.fs->drop_payloads();
  arena_->reset();
  entry.stamp = ++stamp_;
  if (pool_.size() >= kMaxPooled) {
    pool_.erase(std::min_element(
        pool_.begin(), pool_.end(),
        [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; }));
  }
  pool_.push_back(std::move(entry));
}

RunScratch::Lease::~Lease() {
  if (owner_ != nullptr && entry_.fs != nullptr) owner_->release(std::move(entry_));
}

}  // namespace ffis::core
