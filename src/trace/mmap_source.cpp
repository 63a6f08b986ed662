#include "trace/mmap_source.hpp"

#include <cstring>
#include <memory>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define RESIM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace resim::trace {

namespace {

/// ByteSource over a read-only mapping of the whole file: take() hands
/// out the mapped bytes in place.
class MappedByteSource final : public ByteSource {
 public:
  explicit MappedByteSource(const std::string& path) : ByteSource(path) {
#ifndef RESIM_HAVE_MMAP
    throw std::runtime_error("MmapTraceSource: no mmap on this platform (" + path +
                             "); use the stream backend");
#else
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) throw std::runtime_error("MmapTraceSource: cannot open " + path);
    struct stat st{};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      throw std::runtime_error("MmapTraceSource: cannot stat " + path);
    }
    set_size(static_cast<std::uint64_t>(st.st_size));
    if (size() > 0) {
      void* m = ::mmap(nullptr, size(), PROT_READ, MAP_PRIVATE, fd, 0);
      if (m == MAP_FAILED) {
        ::close(fd);
        throw std::runtime_error("MmapTraceSource: mmap failed for " + path);
      }
      map_ = static_cast<const std::uint8_t*>(m);
      // Sequential drain is the dominant access pattern; advisory only.
      (void)::madvise(m, size(), MADV_SEQUENTIAL);
    }
    ::close(fd);
#endif
  }

  ~MappedByteSource() override {
#ifdef RESIM_HAVE_MMAP
    if (map_ != nullptr) ::munmap(const_cast<std::uint8_t*>(map_), size());
#endif
  }

  MappedByteSource(const MappedByteSource&) = delete;
  MappedByteSource& operator=(const MappedByteSource&) = delete;

  void read(void* dst, std::size_t n, const char* field) override {
    if (!fits(n)) throw std::runtime_error(std::string("load_trace: truncated field ") + field);
    std::memcpy(dst, map_ + pos_, n);
    pos_ += n;
  }

  std::span<const std::uint8_t> take(std::size_t n) override {
    if (!fits(n)) throw std::runtime_error("load_trace: truncated chunk in " + path());
    const std::span<const std::uint8_t> out(map_ + pos_, n);
    pos_ += n;
    return out;
  }

  void seek(std::uint64_t pos) override { pos_ = pos; }
  [[nodiscard]] std::uint64_t pos() const override { return pos_; }

 private:
  /// pos_ may sit past the end after a seek over lying framing; ordered
  /// so the comparison cannot underflow.
  [[nodiscard]] bool fits(std::size_t n) const {
    return pos_ <= size() && n <= size() - pos_;
  }

  const std::uint8_t* map_ = nullptr;
  std::uint64_t pos_ = 0;
};

}  // namespace

MmapTraceSource::MmapTraceSource(const std::string& path)
    : FileTraceSource(std::make_unique<MappedByteSource>(path)) {}

}  // namespace resim::trace
