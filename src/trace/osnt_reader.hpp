// Chunk-indexed OSNT reader: random access, windowed and parallel decode,
// per-chunk integrity verification.
//
// The offline half of the paper's pipeline must scale past toy traces: a
// long-term monitoring run produces files far larger than RAM, analyses often
// want a time slice rather than the whole run, and cold storage rots. The v3
// layout (trace_io.hpp) makes all three cheap, and OsntReader is the
// consumer:
//  * the footer index is located from the fixed trailer at EOF, so opening a
//    file costs O(index), not O(trace);
//  * read_window() binary-searches the index and decodes only the chunks
//    overlapping the window;
//  * verify() checks every chunk's CRC-32, structure and record order
//    without building a model, and reports truncation (writer died before
//    finish()) and index damage (trailer/index unreadable -> index rebuilt
//    by a forward scan, salvaging every chunk up to the first corrupt byte);
//  * index_summary() exposes the pre-aggregate block (chunk_aggregate.hpp)
//    when the file carries an intact one, so summary queries can skip record
//    decode entirely.
//
// One record order: records are in global (timestamp, cpu) order, as every
// writer emits them. Every read checks it per record, across chunks and
// against the index (sorted time ranges; each chunk's first/last timestamp
// and cpu mask equal to its entry), refusing a file that breaks it with the
// chunk's TraceReadError — a window search never silently misses records.
//
// One decode: read_all/read_chunks/read_window count records per CPU (pass
// 1, checking each chunk's header and CRC), give every chunk its slots by
// prefix sums and decode straight into them (pass 2, checking the record
// order and the index), serially or on a common::ThreadPool. Chunks decode
// independently (per-chunk delta reset), so the model — or the lowest
// failing chunk's error — is identical at any worker count, and decode
// memory is O(records + threads x cpus), never chunks x cpus.
//
// One byte source: a file-backed reader maps the file read-only and decodes
// straight out of the mapping (zero-copy); a buffer-backed reader (owned or
// borrowed) decodes out of the buffer. Every access is a bounds-checked view
// of that one read-only span. A non-empty file that cannot be mapped is
// refused at open with a TraceReadError.
//
// v3 is the only layout served. A v1/v2 file is refused at open with a
// TraceReadError naming the one conversion path, `osn-analyze upgrade IN
// OUT` (deserialize_trace in trace_io.hpp holds the legacy decoders). All
// input errors throw trace::TraceReadError.
//
// Thread safety: the reader is immutable after construction, so every const
// member may be called concurrently from multiple threads on one reader (the
// query server's workers share a reader per catalog entry). Chunks are read
// from the immutable span, and the metadata of a truncated file is refined
// only in the models a read returns — meta() never changes after open.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/mapped_file.hpp"
#include "common/thread_pool.hpp"
#include "trace/chunk_aggregate.hpp"
#include "trace/trace_error.hpp"
#include "trace/trace_model.hpp"

namespace osn::trace {

/// The OSNT layout version the writer emits and the reader serves.
inline constexpr std::uint32_t kOsntVersion = 3;

/// One entry of the v3 footer index.
struct ChunkInfo {
  std::uint64_t offset = 0;       ///< file offset of the chunk's count varint
  std::uint64_t records = 0;      ///< records in the chunk (> 0)
  std::uint64_t payload_len = 0;  ///< payload bytes (between header varints and CRC)
  TimeNs t_first = 0;             ///< timestamp of the first record
  TimeNs t_last = 0;              ///< timestamp of the last record
  std::uint64_t cpu_mask = 0;     ///< bit c: cpu c present (c < 63); bit 63: any cpu >= 63
};

struct ChunkIssue {
  std::int64_t chunk = TraceReadError::kNoChunk;  ///< kNoChunk for file-level issues
  std::uint64_t offset = 0;
  std::string problem;
};

/// Result of verify(): structural + integrity findings, no model built.
struct VerifyReport {
  bool truncated = false;        ///< truncation sentinel (writer died before finish())
  bool index_recovered = false;  ///< trailer/index damaged; rebuilt by forward scan
  std::size_t chunks = 0;        ///< chunks checked
  std::uint64_t records = 0;     ///< records covered by intact chunks
  std::vector<ChunkIssue> issues;

  /// No corruption found. Truncation/recovery are reported separately: a
  /// cleanly-truncated file is readable, just incomplete.
  bool intact() const { return issues.empty(); }
  bool clean() const { return intact() && !truncated && !index_recovered; }
};

class OsntReader {
 public:
  /// Maps, opens and indexes a v3 trace file. Throws TraceReadError when the
  /// file cannot be opened or mapped, is a v1/v2 file (the message names
  /// `osn-analyze upgrade`), or the header/index is unusable.
  explicit OsntReader(const std::string& path);
  /// In-memory variant over a serialized buffer (tests, network payloads).
  explicit OsntReader(std::vector<std::uint8_t> bytes);
  /// Borrowed-buffer variant: decodes out of caller-owned memory without
  /// copying. The buffer must outlive the reader.
  OsntReader(const std::uint8_t* data, std::size_t size);

  OsntReader(const OsntReader&) = delete;
  OsntReader& operator=(const OsntReader&) = delete;

  bool truncated() const { return truncated_; }
  bool index_recovered() const { return index_recovered_; }
  /// Chunk index (rebuilt by scan when damaged).
  const std::vector<ChunkInfo>& chunks() const { return chunks_; }
  std::uint64_t indexed_records() const;

  /// The file's pre-aggregate block, when present and intact (files written
  /// with a ChunkAggregator). nullopt for files written without an
  /// aggregator, truncated files, recovered indexes, and files
  /// whose aggregate block failed its CRC or structural checks (the damage
  /// is reported through verify()) — callers fall back to record decode.
  const std::optional<IndexSummary>& index_summary() const { return index_summary_; }

  /// Trace metadata/tasks from the footer. For truncated files the footer is
  /// missing: meta is synthesized best-effort from the chunk index (workload
  /// "(truncated)", window covering the flushed records) and the task table
  /// is empty. A decoded model of a truncated file may widen n_cpus/end_ns
  /// to the records it holds; meta() itself stays as opened.
  const TraceMeta& meta() const { return meta_; }
  const std::map<Pid, TaskInfo>& tasks() const { return tasks_; }

  /// Decodes the whole trace. With a pool, chunks decode in parallel; the
  /// result, or the error, is identical at any worker count.
  TraceModel read_all(ThreadPool* pool = nullptr) const;

  /// Decodes only the records with t0 <= timestamp < t1, touching only the
  /// chunks whose index time range overlaps the window (binary search on
  /// t_first). Kernel
  /// entry/exit frames cut by the window edges are repaired (unmatched exits
  /// at the head and unclosed entries at the tail are dropped) so the model
  /// keeps the analyzer's pairing invariants; meta start/end are clamped to
  /// the window.
  TraceModel read_window(TimeNs t0, TimeNs t1, ThreadPool* pool = nullptr) const;

  /// The contiguous [first, last) range of chunks whose index time span
  /// overlaps [t0, t1) — exactly the set read_window() decodes. Returns
  /// (0, 0) for empty windows.
  std::pair<std::size_t, std::size_t> window_chunk_range(TimeNs t0, TimeNs t1) const;

  /// Decodes and assembles an explicit set of chunks (ids strictly
  /// increasing) into a model carrying the full-trace meta (no window
  /// clamping). Throws TraceReadError for out-of-range ids. read_window(t0, t1) is exactly
  /// window_of(read_chunks(window_chunk_range(t0, t1)), t0, t1) bit for bit
  /// — the identity the query engine's chunk-range model cache relies on.
  /// The engine also passes mask-pruned subsets: dropping chunks whose
  /// cpu_mask lacks a cpu leaves that cpu's stream untouched.
  TraceModel read_chunks(const std::vector<std::size_t>& ids,
                         ThreadPool* pool = nullptr) const;

  /// Streams every record in global (timestamp, cpu) order, chunk at a time
  /// — O(chunk) memory. A chunk is fully checked before its records are
  /// handed out.
  void for_each(const std::function<void(const tracebuf::EventRecord&)>& fn) const;

  /// Integrity check: per-chunk CRC, structural decode, record order and
  /// index agreement, footer parse — the checks every read makes. Never
  /// throws for in-file corruption — findings land in the report.
  VerifyReport verify() const;

 private:
  void open_and_index();
  bool parse_trailer_and_index();
  void parse_aggregate_block(const std::uint8_t* idx, std::size_t size, std::size_t pos,
                             std::size_t n_chunks, std::uint64_t base_offset);
  /// Parses the footer starting at footer_offset (reading no further than
  /// `end`) into meta_/tasks_; returns the offset one past it.
  std::uint64_t parse_footer(std::uint64_t footer_offset, std::uint64_t end);
  void recover_by_scan();
  void synthesize_truncated_meta();
  /// Largest cpu id + 1 the decode accepts for this file.
  std::size_t decode_cpu_bound() const;
  /// A view of [offset, offset+len) of the byte source; throws
  /// TraceReadError when the range runs past the end. Valid as long as the
  /// reader lives.
  const std::uint8_t* view_at(std::uint64_t offset, std::uint64_t len) const;
  /// Chunk `i`'s payload, after its header was checked against the index and
  /// its CRC verified; sets `payload_off` to the payload's file offset.
  const std::uint8_t* chunk_payload(std::size_t i, std::uint64_t& payload_off) const;
  /// Throws the index-order issue found at open, if any.
  void require_ordered_index() const;
  /// The one model-building decode behind read_all, read_chunks and
  /// read_window: count per cpu, then decode into exact slots.
  TraceModel decode(const std::vector<std::size_t>& ids, ThreadPool* pool) const;

  MappedFile map_;                   ///< file-backed readers: the mapping
  std::vector<std::uint8_t> owned_;  ///< owned-buffer readers: the buffer
  /// The one byte source: the mapping, the owned buffer or the borrowed one.
  std::span<const std::uint8_t> bytes_;
  std::uint64_t data_begin_ = 0;     ///< first byte after the header varints

  bool truncated_ = false;
  bool index_recovered_ = false;
  /// Problems found while opening (index recovery, footer damage, a rejected
  /// aggregate block); prepended to every verify() report.
  std::vector<ChunkIssue> open_issues_;
  /// The first chunk whose index time range breaks the record order; every
  /// read refuses the file when set.
  std::optional<ChunkIssue> index_order_;
  std::vector<ChunkInfo> chunks_;
  std::optional<IndexSummary> index_summary_;
  TraceMeta meta_;
  std::map<Pid, TaskInfo> tasks_;
};

/// Windowed copy of a model: every cpu stream clipped to [t0, t1), with the
/// kernel entry/exit frames cut by the edges repaired — exits whose entry
/// predates the window and entries whose exit postdates it are dropped
/// (point events and sched/app marks are kept), so the result satisfies
/// TraceModel's pairing validation — and meta start/end clamped to the
/// window. Shared by OsntReader::read_window, the query engine and the
/// generic EventSource window fallback.
TraceModel window_of(const TraceModel& model, TimeNs t0, TimeNs t1);

}  // namespace osn::trace
