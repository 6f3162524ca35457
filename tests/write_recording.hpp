#pragma once
// A recording FileSystem decorator for write- and read-sequence pins: it
// captures the (offset, length, FNV-1a of the bytes) of every pwrite and the
// (offset, length) of every pread that passes through, in order, so a test
// can assert that an application lays down exactly the same I/O stream —
// the sequence instance selection (pwrite and pread faults alike) and every
// FsStats counter depend on.

#include <cstdint>
#include <ostream>
#include <vector>

#include "ffis/util/serialize.hpp"
#include "ffis/vfs/passthrough_fs.hpp"

namespace ffis::test_support {

struct WriteRecord {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  std::uint64_t fnv = 0;  ///< util::fnv1a64 of the written bytes

  friend bool operator==(const WriteRecord&, const WriteRecord&) = default;
  friend std::ostream& operator<<(std::ostream& os, const WriteRecord& r) {
    return os << "{" << r.offset << ", " << r.length << ", 0x" << std::hex << r.fnv
              << std::dec << "ULL}";
  }
};

struct ReadRecord {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;  ///< the length asked for, not the bytes returned

  friend bool operator==(const ReadRecord&, const ReadRecord&) = default;
  friend std::ostream& operator<<(std::ostream& os, const ReadRecord& r) {
    return os << "{" << r.offset << ", " << r.length << "}";
  }
};

class RecordingFs : public vfs::PassthroughFs {
 public:
  using PassthroughFs::PassthroughFs;

  std::size_t pwrite(vfs::FileHandle fh, util::ByteSpan buf, std::uint64_t offset) override {
    writes_.push_back(WriteRecord{offset, buf.size(), util::fnv1a64(buf)});
    return PassthroughFs::pwrite(fh, buf, offset);
  }

  std::size_t pread(vfs::FileHandle fh, util::MutableByteSpan buf,
                    std::uint64_t offset) override {
    reads_.push_back(ReadRecord{offset, buf.size()});
    return PassthroughFs::pread(fh, buf, offset);
  }

  [[nodiscard]] const std::vector<WriteRecord>& writes() const noexcept { return writes_; }
  [[nodiscard]] const std::vector<ReadRecord>& reads() const noexcept { return reads_; }

 private:
  std::vector<WriteRecord> writes_;
  std::vector<ReadRecord> reads_;
};

}  // namespace ffis::test_support
