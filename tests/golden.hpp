// Test helper: the golden legacy OSNT files under tests/data/.
//
// synthetic_v1.osnt and synthetic_v2.osnt hold the synthetic 8-CPU trace of
// test_format_equivalence.cpp (synthetic_trace(), 1584 records), written by
// the v1 whole-trace writer and the v2 stream writer (64-record chunks)
// before both were removed. They pin read compatibility of the legacy
// decoders and `osn-analyze upgrade` to bytes no current code can produce.
#pragma once

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace osn::testing {

inline std::string golden_path(const std::string& name) {
  return std::string(OSN_TEST_DATA_DIR) + "/" + name;
}

inline std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(f), {});
}

inline std::vector<std::uint8_t> golden_bytes(const std::string& name) {
  return file_bytes(golden_path(name));
}

}  // namespace osn::testing
