// Corruption battery: bit-flips and truncations at randomized offsets over
// every OSNT layout must produce a clean, structured TraceReadError (or a
// successful salvage) — never a crash, abort, or sanitizer finding. This is
// the robustness contract of a trace store: cold archives rot and consumer
// daemons get killed, and the analysis tooling has to fail with a byte
// offset, not a core dump.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "trace/osnt_layout.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::TraceBuilder;

TraceModel sample_trace() {
  TraceBuilder b(4);
  b.task(1, "rank0", true).task(2, "rank1", true).task(9, "rpciod", false, true);
  TimeNs t = 50;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const CpuId cpu = static_cast<CpuId>(i % 4);
    b.pair(cpu, t, t + 400, static_cast<Pid>(1 + i % 2), EventType::kIrqEntry, 0);
    b.ev(cpu, t + 500, 9, EventType::kSchedWakeup, 1);
    t += 1000 + 13 * i;
  }
  return b.build(t + 1000);
}

/// Serializes `model` through the v3 stream writer and returns the file's
/// bytes (small chunks so the battery hits many chunk boundaries).
std::vector<std::uint8_t> v3_bytes(const TraceModel& model, std::size_t chunk_records = 16,
                                   bool finish = true) {
  // Per process: ctest runs each test as its own process, in parallel.
  const std::string path =
      ::testing::TempDir() + "/osn_corrupt_tmp_" + std::to_string(::getpid()) + ".osnt";
  {
    OsntStreamWriter writer(path, chunk_records);
    for (const auto& rec : model.merged()) writer.append(rec);
    if (finish) {
      EXPECT_TRUE(writer.finish(model.meta(), model.tasks()));
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  std::remove(path.c_str());
  return bytes;
}

/// The battery's pass criterion: opening/reading/verifying the buffer either
/// succeeds or throws TraceReadError — anything else (abort, other exception,
/// sanitizer finding) fails the test.
void expect_clean_failure_or_success(std::vector<std::uint8_t> bytes) {
  try {
    OsntReader reader(std::move(bytes));
    (void)reader.verify();    // never throws for in-file corruption
    (void)reader.read_all();  // may throw TraceReadError
  } catch (const TraceReadError&) {
    // Structured failure with a byte offset: exactly what corrupt input owes.
  }
}

TEST(TraceCorruption, RandomBitFlipsNeverCrashV3) {
  const auto pristine = v3_bytes(sample_trace());
  Xoshiro256 rng(2026);
  for (int trial = 0; trial < 300; ++trial) {
    auto bytes = pristine;
    const std::size_t pos = static_cast<std::size_t>(rng.bounded(bytes.size()));
    bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.bounded(8));
    expect_clean_failure_or_success(std::move(bytes));
  }
}

TEST(TraceCorruption, RandomMultiByteGarbageNeverCrashV3) {
  const auto pristine = v3_bytes(sample_trace());
  Xoshiro256 rng(77);
  for (int trial = 0; trial < 150; ++trial) {
    auto bytes = pristine;
    const std::size_t n = 1 + static_cast<std::size_t>(rng.bounded(16));
    for (std::size_t i = 0; i < n; ++i)
      bytes[static_cast<std::size_t>(rng.bounded(bytes.size()))] =
          static_cast<std::uint8_t>(rng.next());
    expect_clean_failure_or_success(std::move(bytes));
  }
}

TEST(TraceCorruption, EveryTruncationPointNeverCrashV3) {
  const auto pristine = v3_bytes(sample_trace());
  for (std::size_t len = 0; len < pristine.size(); ++len) {
    std::vector<std::uint8_t> prefix(pristine.begin(),
                                     pristine.begin() + static_cast<std::ptrdiff_t>(len));
    expect_clean_failure_or_success(std::move(prefix));
  }
}

TEST(TraceCorruption, RandomBitFlipsNeverCrashV1) {
  const auto pristine = serialize_trace(sample_trace());
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = pristine;
    bytes[static_cast<std::size_t>(rng.bounded(bytes.size()))] ^=
        static_cast<std::uint8_t>(1u << rng.bounded(8));
    try {
      (void)deserialize_trace(bytes);
    } catch (const TraceReadError&) {
    }
  }
}

// A flipped payload bit is caught by the chunk CRC: verify() pins the damage
// to the chunk, read_all refuses with the chunk id, and every *other* chunk
// is still decodable.
TEST(TraceCorruption, PayloadBitFlipIsDetectedAndLocalized) {
  const TraceModel original = sample_trace();
  auto bytes = v3_bytes(original);

  std::size_t target_payload = 0;
  std::size_t damaged_chunk = 0;
  {
    OsntReader clean(bytes);
    ASSERT_GT(clean.chunks().size(), 2u);
    damaged_chunk = clean.chunks().size() / 2;
    const ChunkInfo& c = clean.chunks()[damaged_chunk];
    std::size_t pos = static_cast<std::size_t>(c.offset);
    (void)get_varint(bytes.data(), bytes.size(), pos);  // record count
    (void)get_varint(bytes.data(), bytes.size(), pos);  // payload length
    target_payload = pos + static_cast<std::size_t>(c.payload_len) / 2;
  }
  bytes[target_payload] ^= 0x10;

  OsntReader reader(bytes);
  const VerifyReport report = reader.verify();
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].chunk, static_cast<std::int64_t>(damaged_chunk));
  EXPECT_NE(report.issues[0].problem.find("CRC"), std::string::npos);

  try {
    (void)reader.read_all();
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_EQ(e.chunk_id(), static_cast<std::int64_t>(damaged_chunk));
  }
}

// A damaged trailer (torn tail write) forfeits the index but not the data:
// the reader rebuilds the index by a forward scan and recovers everything.
TEST(TraceCorruption, DamagedTrailerRecoversByScan) {
  const TraceModel original = sample_trace();
  auto bytes = v3_bytes(original);
  bytes[bytes.size() - 1] ^= 0xff;  // trailer magic

  OsntReader reader(bytes);
  EXPECT_TRUE(reader.index_recovered());
  EXPECT_EQ(reader.indexed_records(), original.total_events());
  EXPECT_EQ(reader.read_all(), original);
}

// Damage inside the footer index (CRC-protected) likewise falls back to the
// scan instead of trusting a rotten index.
TEST(TraceCorruption, DamagedIndexRecoversByScan) {
  const TraceModel original = sample_trace();
  auto bytes = v3_bytes(original);
  bytes[bytes.size() - osnt::kTrailerSize - 6] ^= 0x01;  // inside index/CRC

  OsntReader reader(bytes);
  EXPECT_TRUE(reader.index_recovered());
  EXPECT_EQ(reader.read_all(), original);
}

// Truncation that cuts into a chunk body salvages every chunk before it.
TEST(TraceCorruption, MidChunkTruncationSalvagesPrefix) {
  const TraceModel original = sample_trace();
  const auto pristine = v3_bytes(original);
  std::uint64_t third_chunk_mid = 0;
  std::size_t intact_chunks = 0;
  std::uint64_t intact_records = 0;
  {
    OsntReader clean(pristine);
    ASSERT_GT(clean.chunks().size(), 3u);
    const ChunkInfo& c = clean.chunks()[3];
    third_chunk_mid = c.offset + c.payload_len / 2;
    intact_chunks = 3;
    for (std::size_t i = 0; i < 3; ++i) intact_records += clean.chunks()[i].records;
  }
  std::vector<std::uint8_t> cut(pristine.begin(),
                                pristine.begin() + static_cast<std::ptrdiff_t>(third_chunk_mid));

  OsntReader reader(std::move(cut));
  EXPECT_TRUE(reader.truncated());
  EXPECT_TRUE(reader.index_recovered());
  EXPECT_EQ(reader.chunks().size(), intact_chunks);
  EXPECT_EQ(reader.indexed_records(), intact_records);
  const TraceModel salvaged = reader.read_all();
  EXPECT_EQ(salvaged.total_events(), intact_records);

  const VerifyReport report = reader.verify();
  EXPECT_TRUE(report.truncated);
  EXPECT_FALSE(report.issues.empty());  // the torn chunk is reported
}

/// Overwrites the leading bytes of chunk 0's payload with `patch` and re-seals
/// the chunk CRC, so the damage reaches the record decoder instead of being
/// rejected at the integrity layer. Payload length is unchanged: the bytes the
/// patch consumes simply shift how the rest of the (now nonsense) payload
/// parses, which is exactly the hostile-input shape a fuzzer produces.
void forge_chunk0_payload(std::vector<std::uint8_t>& bytes,
                          const std::vector<std::uint8_t>& patch) {
  std::size_t payload_off = 0;
  std::size_t payload_len = 0;
  {
    OsntReader clean(bytes);
    ASSERT_FALSE(clean.chunks().empty());
    const ChunkInfo& c = clean.chunks()[0];
    std::size_t pos = static_cast<std::size_t>(c.offset);
    (void)get_varint(bytes.data(), bytes.size(), pos);  // record count
    (void)get_varint(bytes.data(), bytes.size(), pos);  // payload length
    payload_off = pos;
    payload_len = static_cast<std::size_t>(c.payload_len);
  }
  ASSERT_LE(patch.size(), payload_len);
  std::copy(patch.begin(), patch.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(payload_off));
  const std::uint32_t crc = crc32(bytes.data() + payload_off, payload_len);
  std::size_t cpos = payload_off + payload_len;
  for (int i = 0; i < 4; ++i)
    bytes[cpos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (8 * i));
}

// A record whose cpu varint decodes to 2^32 must be refused with a structured
// error BEFORE any per-cpu state is sized from it. The old decoder resized
// per-cpu vectors straight from the varint, so this exact input attempted a
// multi-GiB allocation; the bound check makes it fail in O(1) memory.
TEST(TraceCorruption, HostileCpuVarintFailsBounded) {
  auto bytes = v3_bytes(sample_trace());
  // varint(2^32): four continuation bytes of zero payload, then bit 32.
  forge_chunk0_payload(bytes, {0x80, 0x80, 0x80, 0x80, 0x10});

  OsntReader reader(std::move(bytes));
  try {
    (void)reader.read_all();
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_EQ(e.chunk_id(), 0);
    EXPECT_NE(std::string(e.what()).find("cpu out of range"), std::string::npos);
  }
}

// Same contract for the subtle case: a cpu id that is small enough to
// allocate cheaply but exceeds the footer's n_cpus. Intact files must bound
// decode by TraceMeta, not just by the format-wide hard cap.
TEST(TraceCorruption, CpuBeyondMetaCountIsRejected) {
  auto bytes = v3_bytes(sample_trace());
  forge_chunk0_payload(bytes, {60});  // n_cpus is 4; 60 is out of range

  OsntReader reader(std::move(bytes));
  try {
    (void)reader.read_all();
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_EQ(e.chunk_id(), 0);
    EXPECT_NE(std::string(e.what()).find("cpu out of range"), std::string::npos);
  }
}

// With the footer gone (truncation) there is no TraceMeta to bound against;
// the format-wide kMaxCpus cap must still keep a 2^32 cpu id from driving an
// allocation during the recovery scan or the salvage read.
TEST(TraceCorruption, HostileCpuVarintFailsBoundedWhenTruncated) {
  auto bytes = v3_bytes(sample_trace());
  forge_chunk0_payload(bytes, {0x80, 0x80, 0x80, 0x80, 0x10});
  // Chop mid-index so the reader falls back to the forward scan.
  bytes.resize(bytes.size() - osnt::kTrailerSize - 3);

  expect_clean_failure_or_success(std::move(bytes));
}

}  // namespace
}  // namespace osn::trace
