// Corruption battery: bit-flips and truncations at randomized offsets over
// the v3 layout and the golden legacy files must produce a clean, structured TraceReadError (or a
// successful salvage) — never a crash, abort, or sanitizer finding. This is
// the robustness contract of a trace store: cold archives rot and consumer
// daemons get killed, and the analysis tooling has to fail with a byte
// offset, not a core dump.
#include <gtest/gtest.h>
#include <unistd.h>

#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "golden.hpp"
#include "trace/osnt_layout.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::golden_bytes;
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

/// What one read produced: the model, or the TraceReadError it threw.
struct ReadOutcome {
  std::optional<TraceModel> model;
  std::string error;
  std::uint64_t offset = 0;
  std::int64_t chunk = TraceReadError::kNoChunk;
};

template <class Read>
ReadOutcome outcome_of(Read&& read) {
  ReadOutcome out;
  try {
    out.model = read();
  } catch (const TraceReadError& e) {
    out.error = e.what();
    out.offset = e.byte_offset();
    out.chunk = e.chunk_id();
  }
  return out;
}

void expect_same_outcome(const ReadOutcome& pooled, const ReadOutcome& serial,
                         const char* what) {
  EXPECT_EQ(pooled.model, serial.model) << what;
  EXPECT_EQ(pooled.error, serial.error) << what;
  EXPECT_EQ(pooled.offset, serial.offset) << what;
  EXPECT_EQ(pooled.chunk, serial.chunk) << what;
}

ThreadPool& shared_pool() {
  static ThreadPool pool(3);
  return pool;
}

/// The battery's pass criterion: opening the buffer and every decode entry
/// (read_all serial and pooled, a mid-span read_window, read_chunks over a
/// chunk subset, for_each, verify) either succeeds or throws TraceReadError
/// — anything else (abort, other exception, sanitizer finding) fails the
/// test. The pool changes nothing: the same model, or the same error (the
/// lowest failing chunk's).
void expect_clean_failure_or_success(std::vector<std::uint8_t> bytes) {
  try {
    OsntReader reader(std::move(bytes));
    (void)reader.verify();  // never throws for in-file corruption
    ThreadPool& pool = shared_pool();
    expect_same_outcome(outcome_of([&] { return reader.read_all(&pool); }),
                        outcome_of([&] { return reader.read_all(); }), "read_all");

    const std::vector<ChunkInfo>& chunks = reader.chunks();
    const TimeNs t0 = chunks.empty() ? 0 : chunks.front().t_first;
    const TimeNs t1 = chunks.empty() ? 0 : chunks.back().t_last;
    const TimeNs mid0 = t0 + (t1 - t0) / 3, mid1 = t0 + (t1 - t0) / 3 * 2;
    expect_same_outcome(outcome_of([&] { return reader.read_window(mid0, mid1, &pool); }),
                        outcome_of([&] { return reader.read_window(mid0, mid1); }),
                        "read_window");

    std::vector<std::size_t> odd;
    for (std::size_t i = 1; i < chunks.size(); i += 2) odd.push_back(i);
    expect_same_outcome(outcome_of([&] { return reader.read_chunks(odd, &pool); }),
                        outcome_of([&] { return reader.read_chunks(odd); }), "read_chunks");

    reader.for_each([](const tracebuf::EventRecord&) {});
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

/// The legacy battery's pass criterion, i.e. what `osn-analyze upgrade`
/// does: decode with deserialize_trace, then rewrite as v3. Decode either
/// succeeds or throws TraceReadError; whatever decodes must be writable
/// (the v3 writer asserts on time-reversed streams).
void expect_legacy_decode_clean(const std::vector<std::uint8_t>& bytes) {
  TraceModel model;
  try {
    model = deserialize_trace(bytes);
  } catch (const TraceReadError&) {
    return;
  }
  const std::string path =
      ::testing::TempDir() + "/osn_corrupt_up_" + std::to_string(::getpid()) + ".osnt";
  EXPECT_TRUE(write_trace_file(model, path));
  std::remove(path.c_str());
}

void legacy_bit_flips(const char* golden, std::uint64_t seed) {
  const auto pristine = golden_bytes(golden);
  ASSERT_FALSE(pristine.empty());
  Xoshiro256 rng(seed);
  for (int trial = 0; trial < 200; ++trial) {
    auto bytes = pristine;
    bytes[static_cast<std::size_t>(rng.bounded(bytes.size()))] ^=
        static_cast<std::uint8_t>(1u << rng.bounded(8));
    expect_legacy_decode_clean(bytes);
  }
}

TEST(TraceCorruption, RandomBitFlipsNeverCrashV1) { legacy_bit_flips("synthetic_v1.osnt", 99); }

TEST(TraceCorruption, RandomBitFlipsNeverCrashV2) { legacy_bit_flips("synthetic_v2.osnt", 98); }

/// Replaces the varint at `pos` with the encoding of `value`. The lengths
/// may differ: the legacy layouts carry no payload lengths, so every later
/// field just shifts.
void splice_varint(std::vector<std::uint8_t>& bytes, std::size_t pos, std::uint64_t value) {
  std::size_t end = pos;
  (void)get_varint(bytes.data(), bytes.size(), end);
  std::vector<std::uint8_t> encoded;
  put_varint(encoded, value);
  bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
              bytes.begin() + static_cast<std::ptrdiff_t>(end));
  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos), encoded.begin(),
               encoded.end());
}

void expect_time_order_error(const std::vector<std::uint8_t>& bytes) {
  try {
    (void)deserialize_trace(bytes);
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("stream not time-ordered"), std::string::npos)
        << e.what();
  }
}

// A legacy timestamp delta near 2^64 wraps the per-CPU clock backwards. The
// decoders must refuse it as malformed input (as the v3 decoder does) rather
// than hand `upgrade` a time-reversed stream for the writer to assert on.
TEST(TraceCorruption, WrappingDeltaIsRejectedInGoldenV1) {
  auto bytes = golden_bytes("synthetic_v1.osnt");
  std::size_t pos = 0;
  (void)get_varint(bytes, pos);  // magic
  (void)get_varint(bytes, pos);  // version
  TraceMeta meta;
  std::map<Pid, TaskInfo> tasks;
  osnt::get_meta_and_tasks(bytes.data(), bytes.size(), pos, meta, tasks);
  ASSERT_GE(get_varint(bytes, pos), 2u);  // cpu 0's record count
  for (int field = 0; field < 4; ++field) (void)get_varint(bytes, pos);  // record 0
  splice_varint(bytes, pos, ~0ULL);  // record 1: t0 + (2^64 - 1) wraps to t0 - 1
  expect_time_order_error(bytes);
}

TEST(TraceCorruption, WrappingDeltaIsRejectedInGoldenV2) {
  auto bytes = golden_bytes("synthetic_v2.osnt");
  std::size_t pos = 0;
  (void)get_varint(bytes, pos);  // magic
  (void)get_varint(bytes, pos);  // version
  const std::uint64_t n = get_varint(bytes, pos);  // chunk 0's record count
  std::vector<bool> seen;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t cpu = get_varint(bytes, pos);
    if (cpu < seen.size() && seen[cpu]) {
      splice_varint(bytes, pos, ~0ULL);  // this cpu's clock wraps backwards
      expect_time_order_error(bytes);
      return;
    }
    if (cpu >= seen.size()) seen.resize(cpu + 1, false);
    seen[cpu] = true;
    for (int field = 0; field < 4; ++field) (void)get_varint(bytes, pos);
  }
  FAIL() << "no cpu repeats in chunk 0";
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

// ---------------------------------------------------------------------------
// The record-order rule: (timestamp, cpu) order, or the file is refused.
// ---------------------------------------------------------------------------

/// Encodes `records` as a v3 file in the order given, `chunk_records` per
/// chunk. Unlike OsntStreamWriter it does not check the record order, so it
/// can build the files the project's writers never produce.
std::vector<std::uint8_t> encode_unchecked(const std::vector<tracebuf::EventRecord>& records,
                                           std::size_t chunk_records, const TraceMeta& meta,
                                           const std::map<Pid, TaskInfo>& tasks) {
  std::vector<std::uint8_t> out;
  put_varint(out, osnt::kMagic);
  put_varint(out, kOsntVersion);
  std::vector<std::uint8_t> index;
  std::size_t n_chunks = 0;
  for (std::size_t begin = 0; begin < records.size(); begin += chunk_records, ++n_chunks) {
    const std::size_t end = std::min(records.size(), begin + chunk_records);
    std::vector<std::uint8_t> payload;
    std::map<std::uint16_t, TimeNs> prev;  // per-cpu delta base, reset per chunk
    std::uint64_t mask = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const tracebuf::EventRecord& rec = records[i];
      put_varint(payload, rec.cpu);
      put_varint(payload, rec.timestamp - prev[rec.cpu]);
      prev[rec.cpu] = rec.timestamp;
      put_varint(payload, rec.pid);
      put_varint(payload, rec.event);
      put_varint(payload, rec.arg);
      mask |= 1ULL << std::min<std::uint32_t>(rec.cpu, 63);
    }
    put_varint(index, out.size());
    put_varint(index, end - begin);
    put_varint(index, payload.size());
    put_varint(index, records[begin].timestamp);
    put_varint(index, records[end - 1].timestamp - records[begin].timestamp);
    put_varint(index, mask);
    put_varint(out, end - begin);
    put_varint(out, payload.size());
    out.insert(out.end(), payload.begin(), payload.end());
    osnt::put_u32le(out, crc32(payload.data(), payload.size()));
  }
  put_varint(out, 0);  // chunk terminator
  const std::uint64_t footer_offset = out.size();
  osnt::put_meta_and_tasks(out, meta, tasks);
  osnt::put_drain(out, meta.drain);
  const std::uint64_t index_offset = out.size();
  std::vector<std::uint8_t> entries;
  put_varint(entries, n_chunks);
  entries.insert(entries.end(), index.begin(), index.end());
  osnt::put_u32le(entries, crc32(entries.data(), entries.size()));
  out.insert(out.end(), entries.begin(), entries.end());
  osnt::put_u64le(out, index_offset);
  osnt::put_u64le(out, footer_offset);
  osnt::put_u32le(out, 0);  // flags: finished
  osnt::put_u32le(out, osnt::kTrailerMagic);
  return out;
}

TraceMeta two_cpu_meta() {
  TraceMeta meta;
  meta.n_cpus = 2;
  meta.tick_period_ns = 10 * kNsPerMs;
  meta.workload = "order";
  meta.end_ns = 200;
  return meta;
}

tracebuf::EventRecord wakeup(TimeNs ts, CpuId cpu) {
  return make_record(ts, cpu, 1, EventType::kSchedWakeup, 0);
}

/// Every read of `bytes` throws TraceReadError naming `chunk` at `offset`;
/// verify() reports an issue on that chunk.
void expect_refused(const std::vector<std::uint8_t>& bytes, std::int64_t chunk,
                    std::uint64_t offset) {
  OsntReader reader(bytes);
  const VerifyReport report = reader.verify();
  EXPECT_FALSE(report.intact());
  EXPECT_TRUE(std::any_of(report.issues.begin(), report.issues.end(),
                          [&](const ChunkIssue& i) { return i.chunk == chunk; }));
  ThreadPool& pool = shared_pool();
  const auto expect_throws = [&](const char* what, auto&& read) {
    const ReadOutcome out = outcome_of(read);
    EXPECT_FALSE(out.model.has_value()) << what;
    EXPECT_EQ(out.chunk, chunk) << what << ": " << out.error;
    EXPECT_EQ(out.offset, offset) << what << ": " << out.error;
  };
  expect_throws("read_all", [&] { return reader.read_all(); });
  expect_throws("read_all(pool)", [&] { return reader.read_all(&pool); });
  expect_throws("read_window", [&] { return reader.read_window(0, 50); });
  expect_throws("read_window(pool)", [&] { return reader.read_window(0, 50, &pool); });
  std::vector<std::size_t> all(reader.chunks().size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  expect_throws("read_chunks", [&] { return reader.read_chunks(all, &pool); });
  expect_throws("for_each", [&] {
    reader.for_each([](const tracebuf::EventRecord&) {});
    return TraceModel();
  });
}

// Per-CPU order is not enough. cpu 0 at t=100..107, then cpu 1 at t=0..7,
// four records a chunk: each chunk is fine alone, but the index's time ranges
// go backwards at chunk 2, so a window search would miss cpu 1's records.
TEST(TraceOrder, PerCpuOrderedButUnmergedFileIsRefused) {
  // The encoder writes exactly what OsntStreamWriter writes when the records
  // are in order, so the refusals in this suite are about order alone.
  const TraceModel sample = sample_trace();
  ASSERT_EQ(encode_unchecked(sample.merged(), 16, sample.meta(), sample.tasks()),
            v3_bytes(sample, 16));

  std::vector<tracebuf::EventRecord> records;
  for (TimeNs t = 100; t < 108; ++t) records.push_back(wakeup(t, 0));
  for (TimeNs t = 0; t < 8; ++t) records.push_back(wakeup(t, 1));
  const auto bytes = encode_unchecked(records, 4, two_cpu_meta(), {});
  const std::uint64_t chunk2 = OsntReader(bytes).chunks()[2].offset;
  expect_refused(bytes, 2, chunk2);

  // The CLI refuses it too: verify, stats and summary exit 1.
  const std::string path =
      ::testing::TempDir() + "/osn_unmerged_" + std::to_string(::getpid()) + ".osnt";
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  }
  for (const char* cmd : {"verify", "stats", "summary"}) {
    const std::string line =
        std::string("\"") + OSN_ANALYZE_BIN + "\" " + cmd + " \"" + path + "\" > /dev/null 2>&1";
    const int status = std::system(line.c_str());
    ASSERT_TRUE(WIFEXITED(status)) << cmd;
    EXPECT_EQ(WEXITSTATUS(status), 1) << cmd;
  }
  std::remove(path.c_str());
}

// Inside one chunk: the index range is sorted (t 5..8), but record 1 (t 3)
// sorts below record 0. The error points at that record.
TEST(TraceOrder, UnmergedRecordsInsideAChunkAreRefused) {
  const std::vector<tracebuf::EventRecord> records = {wakeup(5, 0), wakeup(3, 1), wakeup(8, 0)};
  const auto bytes = encode_unchecked(records, 4, two_cpu_meta(), {});
  const ChunkInfo c = OsntReader(bytes).chunks()[0];
  // Payload: count and length varints (1 byte each), then record 0 (5
  // one-byte fields); record 1 ends 5 bytes later.
  expect_refused(bytes, 0, c.offset + 2 + 10);
}

// Across a chunk boundary at one timestamp: chunk 0 ends with cpu 1 at t=10
// and chunk 1 starts with cpu 0 at t=10. The index cannot see the tie; the
// decode's cross-chunk check does.
TEST(TraceOrder, CpuTieBrokenBackwardsAcrossChunksIsRefused) {
  const std::vector<tracebuf::EventRecord> records = {wakeup(9, 0), wakeup(10, 1),
                                                      wakeup(10, 0), wakeup(11, 1)};
  const auto bytes = encode_unchecked(records, 2, two_cpu_meta(), {});
  const std::uint64_t chunk1 = OsntReader(bytes).chunks()[1].offset;
  expect_refused(bytes, 1, chunk1);
}

// ---------------------------------------------------------------------------
// Memory bound: decode state grows with records and cpus, never with their
// product.
// ---------------------------------------------------------------------------

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OSN_RESERVES_SHADOW_MEMORY 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define OSN_RESERVES_SHADOW_MEMORY 1
#endif
#endif

// A 20 KB file declaring 65535 cpus, with 1000 one-record chunks on cpus
// spread over that range. A decode that sized per-chunk x per-cpu state
// needs ~1.5 GB here; every decode entry must fit in a child limited to
// 1 GiB of address space.
TEST(TraceCorruption, ManyCpusTimesManyChunksFitsAMemoryBudget) {
#ifdef OSN_RESERVES_SHADOW_MEMORY
  GTEST_SKIP() << "ASan/TSan reserve shadow address space beyond any RLIMIT_AS";
#else
  TraceMeta meta;
  meta.n_cpus = 65535;
  meta.tick_period_ns = 10 * kNsPerMs;
  meta.workload = "many-cpus";
  meta.end_ns = 20'000;
  const std::string path =
      ::testing::TempDir() + "/osn_many_cpus_" + std::to_string(::getpid()) + ".osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/1);
    for (std::uint32_t i = 0; i < 1000; ++i)
      writer.append(wakeup(1'000 + i * 10, static_cast<CpuId>(i * 7919 % 65535)));
    ASSERT_TRUE(writer.finish(meta, {}));
  }

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const rlimit limit{1ull << 30, 1ull << 30};
    if (::setrlimit(RLIMIT_AS, &limit) != 0) ::_exit(3);
    try {
      ThreadPool pool(2);
      const OsntReader reader(path);
      if (reader.read_all(&pool).total_events() != 1000) ::_exit(2);
      if (reader.read_all().total_events() != 1000) ::_exit(2);
      if (reader.read_window(3'000, 7'000, &pool).total_events() != 400) ::_exit(2);
      std::vector<std::size_t> ids;
      for (std::size_t i = 0; i < 1000; i += 3) ids.push_back(i);
      if (reader.read_chunks(ids, &pool).total_events() != ids.size()) ::_exit(2);
    } catch (...) {
      ::_exit(1);
    }
    ::_exit(0);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  std::remove(path.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0) << "1: allocation failed under 1 GiB; 2: wrong count";
#endif
}

}  // namespace
}  // namespace osn::trace
