// Read-only memory mapping of a file (RAII over mmap).
//
// The OSNT v3 reader reads a trace file only through its mapping: chunk
// payloads are served as pointers into it, never copied into buffers. This
// wrapper owns the mapping's lifetime, which may outlive the descriptor it
// was made from. map() yields an invalid object when mmap fails (empty file,
// exhausted address space, a file that cannot be mapped); the reader then
// refuses a non-empty file with a TraceReadError.
//
// Safety note: reading through the mapping after the file shrinks under us
// would raise SIGBUS. The trace catalog publishes files by rename and never
// truncates in place (serve_helpers.hpp documents the contract), so a mapped
// inode's size is stable for the mapping's lifetime.
#pragma once

#include <cstddef>
#include <cstdint>

namespace osn {

class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  /// Maps `size` bytes of `fd` read-only from offset 0. Returns an invalid
  /// (default) object on failure — including size == 0, which mmap rejects.
  static MappedFile map(int fd, std::uint64_t size);

  bool valid() const { return data_ != nullptr; }
  const std::uint8_t* data() const { return data_; }
  std::uint64_t size() const { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::uint64_t size_ = 0;
};

}  // namespace osn
