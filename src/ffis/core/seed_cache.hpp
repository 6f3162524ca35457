#pragma once
// An application's per-seed inputs (a density field, a Monte Carlo trace,
// rendered tiles), fixed for a whole campaign so that every injection run of
// a seed performs the same I/O.  A SeedCache holds them for one seed at a
// time and frames them as the application's state blob, str(tag) u64(seed)
// payload; the application declares only how to build, encode and decode
// them.  It is the application's one piece of mutable state, safe to use
// concurrently.

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "ffis/util/bytes.hpp"
#include "ffis/util/serialize.hpp"

namespace ffis::core {

template <class T>
class SeedCache {
 public:
  using Build = std::function<T(std::uint64_t seed)>;
  using Encode = std::function<void(const T& value, util::ByteWriter& out)>;
  /// Throws on a payload the configuration does not match: it comes from disk.
  using Decode = std::function<T(std::uint64_t seed, util::ByteReader& in)>;

  SeedCache(std::string tag, Build build, Encode encode, Decode decode)
      : tag_(std::move(tag)), build_(std::move(build)), encode_(std::move(encode)),
        decode_(std::move(decode)) {}

  /// The inputs of `seed`, built under the lock on a miss.  A miss evicts the
  /// cached seed; callers keep theirs alive through the returned pointer.
  [[nodiscard]] std::shared_ptr<const T> get(std::uint64_t seed) const {
    std::lock_guard lock(mutex_);
    if (!value_ || seed_ != seed) {
      value_ = std::make_shared<const T>(build_(seed));
      seed_ = seed;
    }
    return value_;
  }

  [[nodiscard]] util::Bytes serialize(std::uint64_t seed) const {
    const std::shared_ptr<const T> value = get(seed);
    util::Bytes out;
    util::ByteWriter w(out);
    w.str(tag_);
    w.u64(seed);
    encode_(*value, w);
    return out;
  }

  /// Installs the inputs a serialize blob carries for `seed`.  True at once
  /// when `seed` is cached; false, with the cache unchanged, when the tag,
  /// the seed or the exact end does not match or the payload does not decode.
  bool restore(std::uint64_t seed, util::ByteSpan state) const {
    {
      std::lock_guard lock(mutex_);
      if (value_ && seed_ == seed) return true;
    }
    std::shared_ptr<const T> value;
    try {
      util::ByteReader r(state);
      if (r.str() != tag_ || r.u64() != seed) return false;
      value = std::make_shared<const T>(decode_(seed, r));
      r.expect_end();
    } catch (const std::exception&) {
      return false;  // truncated or foreign blob: build lazily instead
    }
    std::lock_guard lock(mutex_);
    value_ = std::move(value);
    seed_ = seed;
    return true;
  }

 private:
  const std::string tag_;
  const Build build_;
  const Encode encode_;
  const Decode decode_;
  mutable std::mutex mutex_;
  mutable std::uint64_t seed_ = 0;
  mutable std::shared_ptr<const T> value_;
};

}  // namespace ffis::core
