#pragma once
// The FFIS virtual file system: a FUSE-shaped file-operation interface.
//
// The paper mounts a FUSE file system (FFISFS) so that the kernel forwards an
// application's I/O requests to user-space callbacks that FFIS instruments.
// Inside a container we cannot mount kernel file systems, so this layer
// substitutes the *interception point*: applications are written against
// `FileSystem`, whose primitive set mirrors the FUSE low-level operations the
// paper names (open / read / write / mknod / chmod / ...).  Fault injection
// then happens by stacking a `faults::FaultingFs` decorator between the
// application and the backing store, exactly as FFISFS sits between the
// application and the underlying file system in Figure 2 of the paper.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ffis/util/bytes.hpp"

namespace ffis::vfs {

/// The file-operation primitives FFIS can instrument.  Matches the FUSE
/// callbacks the paper lists as fault-hosting candidates (Table I) plus the
/// read-side operations needed by post-analyses.
enum class Primitive : std::uint8_t {
  Open = 0,
  Create,
  Close,
  Pread,
  Pwrite,
  Mknod,
  Chmod,
  Truncate,
  Unlink,
  Mkdir,
  Rename,
  Stat,
  Readdir,
  Fsync,
  kCount,
};

inline constexpr std::size_t kPrimitiveCount = static_cast<std::size_t>(Primitive::kCount);

/// Human-readable primitive name ("FFIS_write" style naming used in logs).
[[nodiscard]] std::string_view primitive_name(Primitive p) noexcept;

/// Parses a primitive name (either "pwrite" or "FFIS_write" spelling).
[[nodiscard]] Primitive parse_primitive(std::string_view name);

enum class OpenMode : std::uint8_t {
  Read,       ///< existing file, read-only
  Write,      ///< create or truncate, write-only
  ReadWrite,  ///< create if missing, read/write, no truncation
};

struct FileStat {
  std::uint64_t size = 0;
  std::uint32_t mode = 0644;
  bool is_dir = false;
};

/// Error category for file-system failures.  The campaign machinery treats
/// uncaught VfsError (and any other exception) escaping an application as a
/// Crash outcome, mirroring "the file system throws the I/O errors and leaves
/// the handling to the application".
class VfsError : public std::runtime_error {
 public:
  enum class Code {
    NotFound,
    AlreadyExists,
    BadHandle,
    IsDirectory,
    NotDirectory,
    InvalidArgument,
    IoError,
  };

  VfsError(Code code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] Code code() const noexcept { return code_; }

 private:
  Code code_;
};

using FileHandle = std::int32_t;
inline constexpr FileHandle kInvalidHandle = -1;

/// Abstract FUSE-shaped file system.  All paths are absolute within the
/// mount ("/a/b.dat"); implementations must be safe for concurrent use from
/// multiple threads on distinct handles.
class FileSystem {
 public:
  virtual ~FileSystem() = default;

  virtual FileHandle open(const std::string& path, OpenMode mode) = 0;
  virtual void close(FileHandle fh) = 0;

  /// Reads up to buf.size() bytes at offset; returns bytes read (0 at EOF).
  virtual std::size_t pread(FileHandle fh, util::MutableByteSpan buf, std::uint64_t offset) = 0;

  /// Writes buf at offset, extending the file as needed; returns bytes
  /// written.  This is the primitive the paper's fault models target.
  virtual std::size_t pwrite(FileHandle fh, util::ByteSpan buf, std::uint64_t offset) = 0;

  /// Creates an empty regular file node with the given mode bits.
  virtual void mknod(const std::string& path, std::uint32_t mode) = 0;
  virtual void chmod(const std::string& path, std::uint32_t mode) = 0;
  virtual void truncate(const std::string& path, std::uint64_t size) = 0;

  /// Handle-based truncation.  Unlike the path-based truncate, this follows
  /// POSIX semantics for unlinked-but-open files: the handle keeps working
  /// after unlink/rename, exactly like pread/pwrite/fsync.  Requires a
  /// writable handle.
  virtual void ftruncate(FileHandle fh, std::uint64_t size) = 0;
  virtual void unlink(const std::string& path) = 0;
  virtual void mkdir(const std::string& path) = 0;
  virtual void rename(const std::string& from, const std::string& to) = 0;
  virtual FileStat stat(const std::string& path) = 0;
  virtual bool exists(const std::string& path) = 0;

  /// Names (not full paths) of entries directly under `path`, sorted.
  virtual std::vector<std::string> readdir(const std::string& path) = 0;
  virtual void fsync(FileHandle fh) = 0;
};

/// RAII file handle.
class File {
 public:
  File() = default;
  File(FileSystem& fs, const std::string& path, OpenMode mode)
      : fs_(&fs), fh_(fs.open(path, mode)) {}
  ~File() { reset(); }

  File(File&& other) noexcept : fs_(other.fs_), fh_(other.fh_) {
    other.fs_ = nullptr;
    other.fh_ = kInvalidHandle;
  }
  File& operator=(File&& other) noexcept {
    if (this != &other) {
      reset();
      fs_ = other.fs_;
      fh_ = other.fh_;
      other.fs_ = nullptr;
      other.fh_ = kInvalidHandle;
    }
    return *this;
  }
  File(const File&) = delete;
  File& operator=(const File&) = delete;

  [[nodiscard]] bool valid() const noexcept { return fs_ != nullptr && fh_ != kInvalidHandle; }
  [[nodiscard]] FileHandle handle() const noexcept { return fh_; }

  std::size_t pread(util::MutableByteSpan buf, std::uint64_t offset) { return fs_->pread(fh_, buf, offset); }
  std::size_t pwrite(util::ByteSpan buf, std::uint64_t offset) { return fs_->pwrite(fh_, buf, offset); }
  void ftruncate(std::uint64_t size) { fs_->ftruncate(fh_, size); }
  void fsync() { fs_->fsync(fh_); }

  void reset() noexcept {
    if (valid()) {
      try {
        fs_->close(fh_);
      } catch (...) {  // close failures on unwind are not recoverable
      }
    }
    fs_ = nullptr;
    fh_ = kInvalidHandle;
  }

 private:
  FileSystem* fs_ = nullptr;
  FileHandle fh_ = kInvalidHandle;
};

// --- Whole-file convenience helpers (used by apps and tests) ---------------

/// Reads the entire file.
[[nodiscard]] util::Bytes read_file(FileSystem& fs, const std::string& path);

/// Writes `data` at `offset` through `file` in `slice_bytes`-sized pwrites
/// (0 = one single write), the write protocol shared by the h5 writer, the
/// FITS writer and Nyx's in-place slab updates — identical slicing matters
/// because uniform fault-instance selection counts individual pwrites.
/// Returns false when a pwrite reports zero progress (a dropped write);
/// callers raise their own domain error.
[[nodiscard]] bool pwrite_all(File& file, util::ByteSpan data, std::uint64_t offset,
                              std::size_t slice_bytes);

/// Creates/truncates and writes the entire file in one pwrite.
void write_file(FileSystem& fs, const std::string& path, util::ByteSpan data);

/// Reads the file and interprets it as text.
[[nodiscard]] std::string read_text_file(FileSystem& fs, const std::string& path);

/// Writes text content.
void write_text_file(FileSystem& fs, const std::string& path, std::string_view text);

/// The canonical spelling of an absolute path: duplicate slashes collapsed,
/// a trailing slash dropped (except the root).  Throws InvalidArgument for
/// a relative path.  MemFs keys its tree by this spelling.
[[nodiscard]] std::string normalize_path(const std::string& path);

/// Parent directory of a path ("/a/b/c" -> "/a/b", "/x" -> "/").
[[nodiscard]] std::string parent_path(const std::string& path);

/// Creates all missing directories along the path (like mkdir -p).
void mkdirs(FileSystem& fs, const std::string& path);

}  // namespace ffis::vfs
