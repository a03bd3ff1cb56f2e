// Read-only memory-mapped file for zero-copy trace decoding.
//
// A v3 scan wants to decode column streams straight out of the page
// cache: no read() syscall per chunk, no staging buffer, one shared
// immutable mapping that any number of scanner workers walk
// concurrently. MappedFile is that primitive — RAII over
// open/fstat/mmap on POSIX platforms, with a heap-buffered fallback
// (one up-front read of the whole file) where mmap is unavailable or
// refuses the file, so callers never need a platform #if or a second
// reader: bytes() is always the file's contents.
//
// Mapping a zero-length file throws std::runtime_error (it cannot be
// any trace format, and mmap itself rejects length 0), as does any
// open or read failure.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace eio::ipm {

class MappedFile {
 public:
  /// Map `path` read-only. Throws std::runtime_error when the file
  /// cannot be opened, is empty, or cannot be read.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// True when this platform maps (false: the read-whole-file fallback
  /// is always in use — correct, just not zero-copy).
  [[nodiscard]] static bool mmap_supported() noexcept;

  [[nodiscard]] std::span<const char> bytes() const noexcept {
    return {data_, size_};
  }
  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  /// The fallback: read the whole file into `fallback_`.
  void read_into_heap(const std::string& path);

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  std::vector<char> fallback_;  ///< owns the bytes when not mapped
  bool mapped_ = false;
};

}  // namespace eio::ipm
