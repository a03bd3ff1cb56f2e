#include "ipm/mapped_file.h"

#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define EIO_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define EIO_HAVE_MMAP 0
#endif

namespace eio::ipm {

bool MappedFile::mmap_supported() noexcept { return EIO_HAVE_MMAP != 0; }

void MappedFile::read_into_heap(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  in.seekg(0, std::ios::end);
  auto size = in.tellg();
  if (size <= 0) {
    throw std::runtime_error("cannot map empty trace file: " + path);
  }
  fallback_.resize(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(fallback_.data(), size);
  if (!in.good()) {
    throw std::runtime_error("cannot read trace file: " + path);
  }
  data_ = fallback_.data();
  size_ = fallback_.size();
}

#if EIO_HAVE_MMAP

MappedFile::MappedFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("cannot open trace file: " + path);
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("cannot stat trace file: " + path);
  }
  if (st.st_size <= 0) {
    ::close(fd);
    throw std::runtime_error("cannot map empty trace file: " + path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (addr == MAP_FAILED) {  // e.g. a filesystem that cannot map
    read_into_heap(path);
    return;
  }
  data_ = static_cast<const char*>(addr);
  mapped_ = true;
}

MappedFile::~MappedFile() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
}

#else  // !EIO_HAVE_MMAP

MappedFile::MappedFile(const std::string& path) { read_into_heap(path); }

MappedFile::~MappedFile() = default;

#endif

}  // namespace eio::ipm
