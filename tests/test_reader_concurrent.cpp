// Concurrent OsntReader access: many threads, one reader, one file.
//
// The query server shares one OsntReader per catalog entry across all its
// workers, so read_all / read_window / verify / meta must be callable
// concurrently and return exactly what a single-threaded caller would get.
// The reader is immutable after open (read-only mapping + immutable index and
// metadata), so none of it takes a lock; results are compared as TraceModels.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "trace/osnt_reader.hpp"
#include "trace/trace_io.hpp"
#include "trace_builder.hpp"

namespace osn::trace {
namespace {

using osn::testing::TraceBuilder;

TraceModel interesting_model() {
  TraceBuilder b(2);
  b.task(1, "rank0", true).task(2, "rank1", true).task(7, "events/0", false, true);
  for (TimeNs t = 0; t < 400; ++t) {
    b.pair(0, 1'000 + t * 5'000, 1'800 + t * 5'000, 1, EventType::kIrqEntry, 0);
    b.pair(1, 3'000 + t * 5'000, 3'600 + t * 5'000, 2, EventType::kPageFaultEntry, 0);
  }
  return b.build(ms(3));
}

std::string temp_path(const char* tag) {
  return ::testing::TempDir() + "osnt_concurrent_" + tag + "_" +
         std::to_string(::getpid()) + ".osnt";
}

void write_v3(const TraceModel& model, const std::string& path) {
  OsntStreamWriter writer(path, /*chunk_records=*/64);
  for (const auto& rec : model.merged()) writer.append(rec);
  ASSERT_TRUE(writer.finish(model.meta(), model.tasks()));
}

TEST(ReaderConcurrent, ParallelReadAllMatchesSerial) {
  const TraceModel original = interesting_model();
  const std::string path = temp_path("v3_all");
  write_v3(original, path);

  OsntReader reader(path);
  const TraceModel expected = reader.read_all();
  EXPECT_EQ(expected, original);

  constexpr std::size_t kThreads = 8;
  std::vector<TraceModel> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] { got[i] = reader.read_all(); });
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i) EXPECT_EQ(got[i], expected) << "thread " << i;
  std::remove(path.c_str());
}

TEST(ReaderConcurrent, MixedWindowAndFullReads) {
  const TraceModel original = interesting_model();
  const std::string path = temp_path("v3_mixed");
  write_v3(original, path);

  OsntReader reader(path);
  const TraceModel expect_all = reader.read_all();
  const TraceModel expect_win = reader.read_window(ms(1), ms(2));

  constexpr std::size_t kThreads = 8;
  std::vector<TraceModel> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Even threads decode the full trace, odd threads a window; both also
      // run verify() to stress the shared index paths.
      got[i] = i % 2 == 0 ? reader.read_all() : reader.read_window(ms(1), ms(2));
      EXPECT_TRUE(reader.verify().intact());
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i)
    EXPECT_EQ(got[i], i % 2 == 0 ? expect_all : expect_win) << "thread " << i;
  std::remove(path.c_str());
}

// Pooled decodes from many callers at once, all on one shared pool: each
// chunk's slots in the per-cpu streams are written by whichever worker
// decodes it, so this is where a race in the parallel slot writes would show.
TEST(ReaderConcurrent, PooledReadsFromManyThreadsMatchSerial) {
  const TraceModel original = interesting_model();
  const std::string path = temp_path("v3_pooled");
  write_v3(original, path);

  OsntReader reader(path);
  const TraceModel expect_all = reader.read_all();
  const TraceModel expect_win = reader.read_window(ms(1), ms(2));
  ThreadPool pool(3);
  EXPECT_EQ(reader.read_all(&pool), expect_all);
  EXPECT_EQ(reader.read_window(ms(1), ms(2), &pool), expect_win);

  constexpr std::size_t kThreads = 6;
  std::vector<TraceModel> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      got[i] = i % 2 == 0 ? reader.read_all(&pool) : reader.read_window(ms(1), ms(2), &pool);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kThreads; ++i)
    EXPECT_EQ(got[i], i % 2 == 0 ? expect_all : expect_win) << "thread " << i;
  std::remove(path.c_str());
}

// Regression: decoding a truncated file used to refine its metadata in
// place, under a lock that meta()'s callers (the served `info` document, the
// engine's window canonicalization) never took — a data race on a reader the
// catalog shares across workers. Decodes now widen only the models they
// return, so meta() stays exactly what open() synthesized.
TEST(ReaderConcurrent, TruncatedMetaStableWhileDecoding) {
  // cpu 70 lies past the index's 63-bit cpu mask, so the meta synthesized at
  // open (n_cpus 64) is narrower than the decoded model (71 streams).
  TraceBuilder b(71);
  b.task(1, "rank0", true);
  for (TimeNs t = 0; t < 300; ++t) {
    b.pair(0, 1'000 + t * 5'000, 1'800 + t * 5'000, 1, EventType::kIrqEntry, 0);
    b.pair(70, 2'000 + t * 5'000, 2'500 + t * 5'000, 1, EventType::kIrqEntry, 0);
  }
  const TraceModel original = b.build(ms(2));
  const std::string path = temp_path("v3_trunc");
  {
    OsntStreamWriter writer(path, /*chunk_records=*/64);
    for (const auto& rec : original.merged()) writer.append(rec);
    // Destroyed without finish(): the truncation sentinel, no footer.
  }

  const OsntReader reader(path);
  ASSERT_TRUE(reader.truncated());
  const TraceMeta opened = reader.meta();
  EXPECT_EQ(opened.n_cpus, 64u);
  const TraceModel expect_all = reader.read_all();
  const TraceModel expect_win = reader.read_window(ms(1), ms(2));
  EXPECT_EQ(expect_all.cpu_count(), 71u);
  EXPECT_EQ(expect_all.merged(), original.merged());
  EXPECT_EQ(reader.meta(), opened);

  constexpr std::size_t kDecoders = 4;
  constexpr std::size_t kWatchers = 4;
  std::atomic<std::size_t> decoding{kDecoders};
  std::atomic<std::size_t> changed{0};
  std::vector<TraceModel> got(kDecoders * 3);
  std::vector<std::thread> threads;
  threads.reserve(kDecoders + kWatchers);
  for (std::size_t i = 0; i < kDecoders; ++i) {
    threads.emplace_back([&, i] {
      for (std::size_t round = 0; round < 3; ++round)
        got[i * 3 + round] = (i + round) % 2 == 0 ? reader.read_all()
                                                  : reader.read_window(ms(1), ms(2));
      decoding.fetch_sub(1);
    });
  }
  for (std::size_t i = 0; i < kWatchers; ++i) {
    threads.emplace_back([&] {
      do {
        const TraceMeta& meta = reader.meta();
        if (meta.n_cpus != opened.n_cpus || meta.end_ns != opened.end_ns ||
            meta.workload != opened.workload)
          changed.fetch_add(1);
      } while (decoding.load() > 0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(changed.load(), 0u);
  EXPECT_EQ(reader.meta(), opened);
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::size_t decoder = i / 3, round = i % 3;
    EXPECT_EQ(got[i], (decoder + round) % 2 == 0 ? expect_all : expect_win) << "read " << i;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osn::trace
