#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "trace/osnt_reader.hpp"
#include "golden.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::file_bytes;
using osn::testing::golden_bytes;
using osn::testing::golden_path;
using osn::testing::TraceBuilder;

// Varint round-trips across the full value spectrum.
class VarintRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VarintRoundTrip, EncodesAndDecodes) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, GetParam());
  std::size_t pos = 0;
  EXPECT_EQ(get_varint(buf, pos), GetParam());
  EXPECT_EQ(pos, buf.size());
}

INSTANTIATE_TEST_SUITE_P(Values, VarintRoundTrip,
                         ::testing::Values(0ULL, 1ULL, 127ULL, 128ULL, 129ULL,
                                           16383ULL, 16384ULL, (1ULL << 32) - 1,
                                           1ULL << 32, ~0ULL));

TEST(Varint, CompactForSmallValues) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 100);
  EXPECT_EQ(buf.size(), 1u);
  buf.clear();
  put_varint(buf, 1000);
  EXPECT_EQ(buf.size(), 2u);
}

TEST(Varint, SequencesConcatenate) {
  std::vector<std::uint8_t> buf;
  for (std::uint64_t v = 0; v < 1000; v += 13) put_varint(buf, v * v);
  std::size_t pos = 0;
  for (std::uint64_t v = 0; v < 1000; v += 13) EXPECT_EQ(get_varint(buf, pos), v * v);
  EXPECT_EQ(pos, buf.size());
}

// Malformed input is an input condition, not a programming error: the reader
// throws a structured TraceReadError (with the byte offset) instead of
// asserting, so tools can fail cleanly.
TEST(Varint, TruncatedInputThrows) {
  std::vector<std::uint8_t> buf{0x80};  // continuation bit set, no next byte
  std::size_t pos = 0;
  EXPECT_THROW(get_varint(buf, pos), TraceReadError);
}

TEST(Varint, OverlongEncodingThrows) {
  std::vector<std::uint8_t> buf(11, 0x80);  // 11 continuation bytes > 64 bits
  std::size_t pos = 0;
  try {
    get_varint(buf, pos);
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("varint"), std::string::npos);
  }
}

TraceModel sample_trace() {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(9, "rpciod", false, true);
  b.pair(0, 100, 2'278, 1, EventType::kIrqEntry, 0);
  b.pair(0, 2'278, 4'120, 1, EventType::kSoftirqEntry, 1);
  b.ev(1, 50, 9, EventType::kSchedWakeup, 1);
  b.pair(1, 1'000'000, 1'002'913, 1, EventType::kPageFaultEntry, 0);
  return b.build(2'000'000);
}

/// The bytes write_trace_file produces for `model`.
std::vector<std::uint8_t> written_bytes(const TraceModel& model, const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  EXPECT_TRUE(write_trace_file(model, path));
  auto bytes = file_bytes(path);
  std::remove(path.c_str());
  return bytes;
}

TEST(TraceIo, RoundTripPreservesEverything) {
  const TraceModel original = sample_trace();
  const auto bytes = written_bytes(original, "osn_io_rt.osnt");
  const TraceModel restored = deserialize_trace(bytes);
  EXPECT_EQ(original, restored);
}

TEST(TraceIo, RoundTripEmptyTrace) {
  const TraceModel original = TraceBuilder(4).build(1);
  EXPECT_EQ(deserialize_trace(written_bytes(original, "osn_io_rt_empty.osnt")), original);
}

TEST(TraceIo, DeltaEncodingIsCompact) {
  // 1000 events with small inter-arrival gaps: ~few bytes per event.
  TraceBuilder b(1);
  for (TimeNs i = 0; i < 1000; ++i)
    b.ev(0, i * 100, 1, EventType::kSchedWakeup, 1);
  const auto bytes = written_bytes(b.build(200'000), "osn_io_delta.osnt");
  EXPECT_LT(bytes.size(), 1000u * 8u);
}

TEST(TraceIo, BadMagicThrows) {
  std::vector<std::uint8_t> junk{1, 2, 3, 4, 5, 6, 7, 8};
  try {
    deserialize_trace(junk);
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
  }
}

TEST(TraceIo, TrailingBytesThrow) {
  auto bytes = golden_bytes("synthetic_v1.osnt");
  ASSERT_FALSE(bytes.empty());
  bytes.push_back(0);
  try {
    deserialize_trace(bytes);
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("trailing"), std::string::npos);
  }
}

TEST(TraceIo, FileRoundTrip) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_test.osnt";
  ASSERT_TRUE(write_trace_file(original, path));
  const TraceModel restored = read_trace_file(path);
  EXPECT_EQ(original, restored);
  std::remove(path.c_str());
}

TEST(TraceIo, UnreadableFileThrows) {
  try {
    read_trace_file("/nonexistent/dir/file.osnt");
    FAIL() << "expected TraceReadError";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open"), std::string::npos);
  }
}

// Streaming the merged record sequence through the chunked writer must
// reconstruct the exact TraceModel it came from.
TEST(TraceIo, StreamWriterRoundTripMatchesModel) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_stream.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/4);  // force many chunks
    ASSERT_TRUE(writer.ok());
    for (const auto& rec : original.merged()) writer.append(rec);
    EXPECT_EQ(writer.records_written(), original.total_events());
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));  // idempotent
  }
  const TraceModel restored = read_trace_file(path);
  EXPECT_EQ(restored, original);
  std::remove(path.c_str());
}

TEST(TraceIo, StreamWriterPersistsDrainStats) {
  TraceModel original = sample_trace();
  TraceMeta meta = original.meta();
  meta.drain.records = 7;
  meta.drain.batches = 3;
  meta.drain.max_batch = 4;
  meta.drain.lost = 1;
  meta.drain.overwritten = 2;
  meta.drain.producer_stalls = 5;
  const std::string path = ::testing::TempDir() + "/osn_io_drain.osnt";
  OsntStreamWriter writer(path);
  ASSERT_TRUE(writer.ok());
  for (const auto& rec : original.merged()) writer.append(rec);
  ASSERT_TRUE(writer.finish(meta, original.tasks()));
  const TraceModel restored = read_trace_file(path);
  EXPECT_EQ(restored.meta().drain, meta.drain);
  std::remove(path.c_str());
}

TEST(TraceIo, StreamWriterEmptyTrace) {
  const TraceModel original = TraceBuilder(4).build(1);
  const std::string path = ::testing::TempDir() + "/osn_io_empty.osnt";
  OsntStreamWriter writer(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  EXPECT_EQ(read_trace_file(path), original);
  std::remove(path.c_str());
}

// The default (v3) stream writer produces a chunk-indexed file: every chunk
// is in the footer index with its time range, and the indexed record count
// matches what was written.
TEST(TraceIo, StreamWriterV3WritesChunkIndex) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_v3_index.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/2);
    for (const auto& rec : original.merged()) writer.append(rec);
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }
  OsntReader reader(path);
  EXPECT_FALSE(reader.truncated());
  EXPECT_FALSE(reader.index_recovered());
  ASSERT_EQ(reader.chunks().size(), (original.total_events() + 1) / 2);
  EXPECT_EQ(reader.indexed_records(), original.total_events());
  TimeNs prev_last = 0;
  for (const ChunkInfo& c : reader.chunks()) {
    EXPECT_GE(c.t_first, prev_last);  // chunks slice the merged order
    EXPECT_LE(c.t_first, c.t_last);
    EXPECT_GT(c.records, 0u);
    prev_last = c.t_last;
  }
  EXPECT_EQ(reader.read_all(), original);
  std::remove(path.c_str());
}

// The legacy layouts are no longer served: the reader refuses them at open
// with the one conversion path in the message, while deserialize_trace (what
// `osn-analyze upgrade` runs) still decodes them.
TEST(TraceIo, LegacyFilesAreRefusedWithUpgradeHint) {
  for (const int version : {1, 2}) {
    const std::string name = "synthetic_v" + std::to_string(version) + ".osnt";
    const std::string hint = "OSNT v" + std::to_string(version) +
                             " file: convert it with `osn-analyze upgrade IN OUT`";
    try {
      OsntReader reader(golden_path(name));
      FAIL() << name << ": expected TraceReadError";
    } catch (const TraceReadError& e) {
      EXPECT_NE(std::string(e.what()).find(hint), std::string::npos) << e.what();
    }
    EXPECT_THROW(read_trace_file(golden_path(name)), TraceReadError) << name;
    EXPECT_EQ(deserialize_trace(golden_bytes(name)).total_events(), 1584u) << name;
  }
}

// Regression (writer crash-consistency): a v3 writer destroyed without
// finish() — consumer daemon killed mid-run — must leave a file the reader
// opens, flags as truncated, and salvages every appended record from,
// including the partially filled final chunk.
TEST(TraceIo, StreamWriterDestructorWritesTruncationSentinel) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  const std::string path = ::testing::TempDir() + "/osn_io_trunc.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/4);
    for (const auto& rec : merged) writer.append(rec);
    // No finish(): the destructor flushes the open chunk and writes a
    // best-effort index + "truncated" trailer.
  }
  OsntReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.index_recovered());
  EXPECT_EQ(reader.indexed_records(), merged.size());
  EXPECT_EQ(reader.meta().workload, "(truncated)");  // no footer to read
  EXPECT_EQ(reader.meta().n_cpus, 2u);               // recovered from cpu masks

  const TraceModel salvaged = reader.read_all();
  EXPECT_EQ(salvaged.merged(), merged);  // every record recovered
  EXPECT_TRUE(salvaged.tasks().empty());

  // verify() reports the truncation but no corruption.
  OsntReader verifier(path);
  const VerifyReport report = verifier.verify();
  EXPECT_TRUE(report.truncated);
  EXPECT_TRUE(report.intact());
  EXPECT_FALSE(report.clean());
  std::remove(path.c_str());
}

// An empty truncated file (killed before any chunk flushed) is still valid.
TEST(TraceIo, StreamWriterDestructorEmptyTruncated) {
  const std::string path = ::testing::TempDir() + "/osn_io_trunc_empty.osnt";
  { OsntStreamWriter writer(path); }
  OsntReader reader(path);
  EXPECT_TRUE(reader.truncated());
  EXPECT_EQ(reader.indexed_records(), 0u);
  EXPECT_EQ(reader.read_all().total_events(), 0u);
  std::remove(path.c_str());
}

// The reader maps trace files; the mapping must read exactly like the same
// bytes fetched with positioned pread(2) into a buffer: same metadata, same
// records, same window slices, same verify verdicts.
TEST(TraceIo, MmapAndPreadBackendsAreEquivalent) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_backends.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/2);
    for (const auto& rec : original.merged()) writer.append(rec);
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }
  std::vector<std::uint8_t> bytes;
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    struct stat st {};
    ASSERT_EQ(::fstat(fd, &st), 0);
    bytes.resize(static_cast<std::size_t>(st.st_size));
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::pread(fd, bytes.data() + done, bytes.size() - done,
                                static_cast<off_t>(done));
      ASSERT_GT(n, 0);
      done += static_cast<std::size_t>(n);
    }
    ::close(fd);
  }
  const OsntReader mapped(path);
  const OsntReader preading{std::move(bytes)};

  EXPECT_EQ(mapped.read_all(), original);
  EXPECT_EQ(preading.read_all(), original);
  EXPECT_EQ(mapped.meta(), preading.meta());
  ASSERT_EQ(mapped.chunks().size(), preading.chunks().size());

  // Window reads exercise the per-chunk view path (header reparse + CRC).
  const TimeNs mid = original.meta().end_ns / 2;
  EXPECT_EQ(mapped.read_window(0, mid), preading.read_window(0, mid));
  EXPECT_EQ(mapped.read_window(mid, original.meta().end_ns + 1),
            preading.read_window(mid, original.meta().end_ns + 1));

  EXPECT_TRUE(mapped.verify().clean());
  EXPECT_TRUE(preading.verify().clean());
  std::remove(path.c_str());
}

// The reader's byte source may be a file mapping, an owned buffer or a
// borrowed one: all three must read identically — same metadata, same
// records, same window slices, same verify verdicts.
TEST(TraceIo, BufferAndBorrowedBackendsAreEquivalent) {
  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_borrow.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/2);
    for (const auto& rec : original.merged()) writer.append(rec);
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }
  const std::vector<std::uint8_t> bytes = osn::testing::file_bytes(path);
  const OsntReader mapped(path);
  std::remove(path.c_str());  // the mapping outlives the directory entry
  const OsntReader borrowed(bytes.data(), bytes.size());
  const OsntReader owned{std::vector<std::uint8_t>(bytes)};

  const TimeNs mid = original.meta().end_ns / 2;
  for (const OsntReader* reader : {&mapped, &borrowed, &owned}) {
    EXPECT_EQ(reader->read_all(), original);
    EXPECT_EQ(reader->meta(), mapped.meta());
    EXPECT_EQ(reader->chunks().size(), mapped.chunks().size());
    // Window reads exercise the per-chunk view path (header reparse + CRC).
    EXPECT_EQ(reader->read_window(0, mid), mapped.read_window(0, mid));
    EXPECT_EQ(reader->read_window(mid, original.meta().end_ns + 1),
              mapped.read_window(mid, original.meta().end_ns + 1));
    EXPECT_TRUE(reader->verify().clean());
  }
}

// A file that cannot be mapped is refused at open, never read another way.
TEST(TraceIo, UnmappableFileIsRefusedAtOpen) {
  try {
    OsntReader reader(::testing::TempDir());  // a directory: opens, cannot map
    FAIL() << "a directory must not open as a trace";
  } catch (const TraceReadError& e) {
    EXPECT_NE(std::string(e.what()).find("cannot map trace file"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Rotation correctness: the monitoring daemon's segment store seals one
// writer and opens the next mid-stream. These tests pin the writer-level
// contract that makes that safe, independent of the store itself.
// ---------------------------------------------------------------------------

// A finish()-then-reopen sequence: the stream split across consecutive
// writers yields fully sealed files (footer + index present, NOT the
// truncation sentinel) whose record concatenation is the original stream.
TEST(TraceIo, StreamWriterRotationSequenceSealsEachFile) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  static constexpr TimeNs kCut = 5'000;  // between the early pairs and the late one

  std::vector<std::string> paths{::testing::TempDir() + "/osn_io_rot1.osnt",
                                 ::testing::TempDir() + "/osn_io_rot2.osnt"};
  for (int seg = 0; seg < 2; ++seg) {
    OsntStreamWriter writer(paths[static_cast<std::size_t>(seg)], /*chunk_records=*/2);
    std::uint64_t prev_bytes = 0;
    for (const auto& rec : merged) {
      if ((seg == 0) != (rec.timestamp < kCut)) continue;
      writer.append(rec);
      EXPECT_GE(writer.bytes_written(), prev_bytes);  // monotonic during a segment
      prev_bytes = writer.bytes_written();
    }
    TraceMeta meta = original.meta();
    meta.start_ns = seg == 0 ? original.meta().start_ns : kCut;
    meta.end_ns = seg == 0 ? kCut : original.meta().end_ns;
    ASSERT_TRUE(writer.finish(meta, original.tasks()));
    // After finish, bytes_written() is the exact on-disk size.
    std::FILE* f = std::fopen(paths[static_cast<std::size_t>(seg)].c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    EXPECT_EQ(writer.bytes_written(), static_cast<std::uint64_t>(std::ftell(f)));
    std::fclose(f);
  }

  std::vector<tracebuf::EventRecord> rejoined;
  for (const std::string& path : paths) {
    OsntReader reader(path);
    EXPECT_FALSE(reader.truncated());  // sealed, not salvaged
    EXPECT_FALSE(reader.index_recovered());
    EXPECT_EQ(reader.tasks(), original.tasks());  // footer intact per segment
    EXPECT_TRUE(reader.verify().clean());
    const auto part = reader.read_all().merged();
    rejoined.insert(rejoined.end(), part.begin(), part.end());
    std::remove(path.c_str());
  }
  EXPECT_EQ(rejoined, merged);
}

// Crash mid-rotation: the previous segment was sealed and renamed into
// place, the next one died as a half-written `.part`. The sealed file must
// stay pristine and the `.part` must salvage through the truncation path.
TEST(TraceIo, StreamWriterCrashMidRotationLeavesSealedSegmentPristine) {
  const TraceModel original = sample_trace();
  const auto merged = original.merged();
  static constexpr TimeNs kCut = 5'000;
  const std::string sealed = ::testing::TempDir() + "/osn_io_crash_seg1.osnt";
  const std::string part = ::testing::TempDir() + "/osn_io_crash_seg2.osnt.part";

  std::vector<tracebuf::EventRecord> first, second;
  for (const auto& rec : merged)
    (rec.timestamp < kCut ? first : second).push_back(rec);

  {
    OsntStreamWriter writer(sealed, /*chunk_records=*/2);
    for (const auto& rec : first) writer.append(rec);
    TraceMeta meta = original.meta();
    meta.end_ns = kCut;
    ASSERT_TRUE(writer.finish(meta, original.tasks()));
  }
  {
    OsntStreamWriter writer(part, /*chunk_records=*/2);
    for (const auto& rec : second) writer.append(rec);
    // "Crash": destroyed without finish().
  }

  OsntReader ok(sealed);
  EXPECT_FALSE(ok.truncated());
  EXPECT_TRUE(ok.verify().clean());
  EXPECT_EQ(ok.read_all().merged(), first);

  OsntReader salvage(part);
  EXPECT_TRUE(salvage.truncated());
  EXPECT_EQ(salvage.read_all().merged(), second);  // every record recoverable
  EXPECT_TRUE(salvage.verify().intact());

  std::remove(sealed.c_str());
  std::remove(part.c_str());
}

/// Stub aggregator with a fixed tail: what the store's compaction uses to
/// persist a merged aggregate without replaying records.
class FixedTailAggregator final : public ChunkAggregator {
 public:
  explicit FixedTailAggregator(ChunkAggregate tail) : tail_(std::move(tail)) {}
  void on_record(const tracebuf::EventRecord&) override {}
  ChunkAggregate take_chunk() override { return {}; }
  std::optional<ChunkAggregate> take_tail(const TraceMeta&) override {
    return std::move(tail_);
  }

 private:
  ChunkAggregate tail_;
};

// A zero-record file whose whole payload is one aggregate blob — the
// compacted "summary segment" shape — round-trips: no chunks, no records,
// index_summary() present with the exact tail.
TEST(TraceIo, ZeroRecordAggregateOnlyFileRoundTrips) {
  ChunkAggregate tail;
  tail.classes.push_back({3, {2, 4'000, 3'000, 1'000}});
  tail.preempt.push_back({7, {1, 500, 500, 500}, 1, 500});
  tail.noise.push_back({7, 2, 5, 12'345});
  tail.cpu_events.push_back({0, 40});
  tail.cpu_events.push_back({1, 2});

  const TraceModel original = sample_trace();
  const std::string path = ::testing::TempDir() + "/osn_io_aggonly.osnt";
  {
    OsntStreamWriter writer(path, /*chunk_records=*/64);
    writer.set_aggregator(std::make_unique<FixedTailAggregator>(tail));
    ASSERT_TRUE(writer.finish(original.meta(), original.tasks()));
  }
  OsntReader reader(path);
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.indexed_records(), 0u);
  EXPECT_TRUE(reader.chunks().empty());
  EXPECT_EQ(reader.meta(), original.meta());
  ASSERT_TRUE(reader.index_summary().has_value());
  EXPECT_TRUE(reader.index_summary()->chunks.empty());
  EXPECT_EQ(reader.index_summary()->tail, tail);
  std::remove(path.c_str());
}

TEST(TraceIo, StreamWriterRejectsNonMonotonicPerCpu) {
  const std::string path = ::testing::TempDir() + "/osn_io_mono.osnt";
  OsntStreamWriter writer(path);
  tracebuf::EventRecord a;
  a.timestamp = 100;
  a.cpu = 0;
  writer.append(a);
  tracebuf::EventRecord b = a;
  b.timestamp = 50;
  EXPECT_DEATH(writer.append(b), "not time-ordered");
  // The order is (timestamp, cpu) across cpus, not per cpu: cpu 1 at t=50
  // after cpu 0 at t=100 is refused too, and so is a lower cpu at a tie.
  tracebuf::EventRecord c = a;
  c.cpu = 1;
  c.timestamp = 50;
  EXPECT_DEATH(writer.append(c), "not time-ordered");
  tracebuf::EventRecord d = a;
  d.cpu = 1;
  writer.append(d);  // (100, 1) follows (100, 0)
  EXPECT_DEATH(writer.append(a), "not time-ordered");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osn::trace
