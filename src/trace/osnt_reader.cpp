#include "trace/osnt_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <exception>
#include <utility>

#include "common/crc32.hpp"
#include "trace/osnt_layout.hpp"
#include "trace/schema.hpp"
#include "trace/trace_io.hpp"

namespace osn::trace {

namespace {

/// Largest cpu id the layout accepts.
constexpr std::uint64_t kMaxCpus = 65536;

/// Walks every record of a v3 chunk payload, calling
/// `emit(cpu, delta, pid64, event64, arg, pos)` per record. The walker owns
/// the wire-format concerns — varint decode, the cpu bound, structural
/// errors — while the emitter owns what to do with the fields.
///
/// `cpu_bound` caps the cpu id (exclusive): meta.n_cpus for intact files,
/// kMaxCpus when no trustworthy metadata exists (truncated files, recovery
/// scans). Bounding here is what keeps a hostile varint cpu (say 2^32) from
/// driving a multi-GiB resize of per-cpu state — it becomes a
/// TraceReadError instead. `file_offset` is the payload's position in the
/// file, for error reporting.
template <class Emit>
void walk_payload(const std::uint8_t* data, std::size_t len, std::uint64_t n_records,
                  std::uint64_t file_offset, std::int64_t chunk_id,
                  std::size_t cpu_bound, Emit&& emit) {
  if (n_records > len / 5 + 1)
    throw TraceReadError("implausible chunk record count", file_offset, chunk_id);
  std::size_t pos = 0;
  // Fast-path region: while the cursor is at least one worst-case record
  // (5 fields x 10-byte varint) from the end, field decodes cannot run off
  // the payload, so the per-byte bounds checks of get_varint are pure
  // overhead. The tail (and any record that strays past `safe`) takes the
  // fully checked path; both report identical errors.
  constexpr std::size_t kMaxVarintBytes = 10;
  const std::size_t safe =
      len >= 5 * kMaxVarintBytes ? len - 5 * kMaxVarintBytes : 0;
  const auto fast_varint = [&](std::size_t& p) {
    std::uint64_t v = data[p++];
    if ((v & 0x80) == 0) return v;  // hot: most fields are one byte
    v &= 0x7f;
    int shift = 7;
    while (true) {
      const std::uint8_t byte = data[p++];
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
      if (shift >= 64) throw_varint_error("varint too long", p);
    }
  };
  try {
    for (std::uint64_t i = 0; i < n_records; ++i) {
      std::uint64_t cpu64, delta, pid64, event64, arg;
      if (pos <= safe) {
        cpu64 = fast_varint(pos);
        delta = fast_varint(pos);
        pid64 = fast_varint(pos);
        event64 = fast_varint(pos);
        arg = fast_varint(pos);
      } else {
        cpu64 = get_varint(data, len, pos);
        delta = get_varint(data, len, pos);
        pid64 = get_varint(data, len, pos);
        event64 = get_varint(data, len, pos);
        arg = get_varint(data, len, pos);
      }
      if (cpu64 >= cpu_bound)
        throw TraceReadError("chunk record cpu out of range", file_offset + pos, chunk_id);
      emit(static_cast<std::size_t>(cpu64), delta, pid64, event64, arg, pos);
    }
  } catch (const TraceReadError& e) {
    if (e.chunk_id() != TraceReadError::kNoChunk) throw;
    // Re-anchor varint-level errors to the file offset and chunk.
    throw TraceReadError(e.what(), file_offset + pos, chunk_id);
  }
  if (pos != len)
    throw TraceReadError("chunk payload length mismatch", file_offset + pos, chunk_id);
}

/// (timestamp, cpu): the key of the one record order every v3 file keeps.
/// TraceModel::merged(), the consumer daemon's k-way merge and every writer
/// emit records in this order; window_chunk_range's binary search relies on
/// it, and every decode checks it.
struct RecordKey {
  TimeNs ts = 0;
  std::size_t cpu = 0;

  friend bool operator<(const RecordKey& a, const RecordKey& b) {
    return a.ts != b.ts ? a.ts < b.ts : a.cpu < b.cpu;
  }
};

/// What a chunk walk saw — the fields its index entry must agree with.
struct ChunkSpan {
  RecordKey first;
  RecordKey last;
  std::uint64_t cpu_mask = 0;  ///< bit c: cpu c present (c < 63); bit 63: any cpu >= 63
};

/// One cpu's state within the chunk being walked.
struct CpuState {
  std::uint64_t epoch = 0;  ///< the walk that last touched this cpu
  TimeNs prev_ts = 0;       ///< delta base: the cpu's previous record in the chunk
  std::size_t n = 0;        ///< caller's: records counted, or next slot to fill
  std::size_t end = 0;      ///< caller's: one past the cpu's last slot
};

/// Decodes chunk payloads for one thread of work. Per-cpu state is grown on
/// demand (bounded by the cpu bound) and never cleared: an epoch stamp marks
/// the chunk that last touched each cpu, so a chunk costs O(its records)
/// whatever the file's cpu count.
class ChunkDecoder {
 public:
  explicit ChunkDecoder(std::size_t cpu_bound) : cpu_bound_(cpu_bound) {}

  /// The state of `cpu` in the current chunk; fresh (all zero) at its first
  /// record there.
  CpuState& state(std::size_t cpu) {
    if (cpu >= cpus_.size()) cpus_.resize(cpu + 1);
    CpuState& s = cpus_[cpu];
    if (s.epoch != epoch_) s = CpuState{epoch_, 0, 0, 0};
    return s;
  }

  /// Counts one payload's records per cpu into state(cpu).n, calling
  /// on_first(cpu) at each cpu's first record. Checks only the payload's
  /// structure and the cpu bound: the cheap first pass of a model decode.
  template <class OnFirst>
  void count(const std::uint8_t* payload, std::size_t len, std::uint64_t n_records,
             std::uint64_t payload_off, std::int64_t chunk_id, OnFirst&& on_first) {
    ++epoch_;
    walk_payload(payload, len, n_records, payload_off, chunk_id, cpu_bound_,
                 [&](std::size_t cpu, std::uint64_t, std::uint64_t, std::uint64_t,
                     std::uint64_t, std::size_t) {
                   if (state(cpu).n++ == 0) on_first(cpu);
                 });
  }

  /// Walks one payload, calling on_record(rec, state) per record in stored
  /// order. A chunk's first record for a CPU carries its absolute timestamp,
  /// i.e. a delta from a fresh state's zero base. Throws TraceReadError when
  /// the payload is malformed, a record sorts below its predecessor (which
  /// also catches a delta that wraps a cpu's clock) or a pid/event overflows
  /// its field. Returns what the walk saw.
  template <class OnRecord>
  ChunkSpan walk(const std::uint8_t* payload, std::size_t len, std::uint64_t n_records,
                 std::uint64_t payload_off, std::int64_t chunk_id, OnRecord&& on_record) {
    ++epoch_;
    ChunkSpan span;
    RecordKey prev;  // (0, 0) sorts below every record
    walk_payload(payload, len, n_records, payload_off, chunk_id, cpu_bound_,
                 [&](std::size_t cpu, std::uint64_t delta, std::uint64_t pid64,
                     std::uint64_t event64, std::uint64_t arg, std::size_t pos) {
                   CpuState& s = state(cpu);
                   tracebuf::EventRecord rec;
                   rec.timestamp = s.prev_ts + delta;
                   const RecordKey key{rec.timestamp, cpu};
                   if (key < prev)
                     throw TraceReadError("records not in (timestamp, cpu) order",
                                          payload_off + pos, chunk_id);
                   if (span.cpu_mask == 0) span.first = key;  // no record seen yet
                   prev = key;
                   span.cpu_mask |= 1ULL << std::min<std::size_t>(cpu, 63);
                   s.prev_ts = rec.timestamp;
                   rec.cpu = static_cast<std::uint16_t>(cpu);
                   rec.pid = narrow<std::uint32_t>(pid64, "pid", pos);
                   rec.event = narrow<std::uint16_t>(event64, "event", pos);
                   rec.arg = arg;
                   on_record(rec, s);
                 });
    span.last = prev;
    return span;
  }

 private:
  std::size_t cpu_bound_;
  std::uint64_t epoch_ = 0;
  std::vector<CpuState> cpus_;
};

/// Walks the verified chunk `id`, which must also agree with its index
/// entry: first and last timestamps and cpu mask.
template <class OnRecord>
ChunkSpan walk_indexed(ChunkDecoder& dec, const std::uint8_t* payload,
                       std::uint64_t payload_off, const ChunkInfo& c, std::size_t id,
                       OnRecord&& on_record) {
  const auto chunk_id = static_cast<std::int64_t>(id);
  const ChunkSpan span = dec.walk(payload, static_cast<std::size_t>(c.payload_len), c.records,
                                  payload_off, chunk_id, on_record);
  if (span.first.ts != c.t_first || span.last.ts != c.t_last)
    throw TraceReadError("chunk time range disagrees with index", c.offset, chunk_id);
  if (span.cpu_mask != c.cpu_mask)
    throw TraceReadError("chunk cpu mask disagrees with index", c.offset, chunk_id);
  return span;
}

/// Refuses chunk `next` when its first record sorts below the last record of
/// the chunk read before it.
void check_boundary(const ChunkSpan& before, const ChunkSpan& next, const ChunkInfo& c,
                    std::size_t id) {
  if (next.first < before.last)
    throw TraceReadError("records not in (timestamp, cpu) order across chunks", c.offset,
                         static_cast<std::int64_t>(id));
}

/// Checks the CRC-32 that follows a chunk payload of `len` bytes at `body`.
void check_crc(const std::uint8_t* body, std::uint64_t len, std::uint64_t payload_off,
               std::int64_t chunk_id) {
  const auto n = static_cast<std::size_t>(len);
  std::size_t cpos = n;
  if (crc32(body, n) != osnt::get_u32le(body, n + 4, cpos))
    throw TraceReadError("chunk CRC mismatch", payload_off, chunk_id);
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / indexing
// ---------------------------------------------------------------------------

OsntReader::OsntReader(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw TraceReadError("cannot open trace file: " + path, 0);
  struct stat st {};
  const bool sized = ::fstat(fd, &st) == 0;
  // The mapping outlives the descriptor; an empty file has nothing to map
  // and fails below as a short file.
  if (sized && st.st_size > 0) map_ = MappedFile::map(fd, static_cast<std::uint64_t>(st.st_size));
  ::close(fd);
  if (!sized) throw TraceReadError("cannot size trace file: " + path, 0);
  if (st.st_size > 0 && !map_.valid()) throw TraceReadError("cannot map trace file: " + path, 0);
  bytes_ = {map_.data(), static_cast<std::size_t>(map_.size())};
  open_and_index();
}

OsntReader::OsntReader(std::vector<std::uint8_t> bytes)
    : owned_(std::move(bytes)), bytes_(owned_) {
  open_and_index();
}

OsntReader::OsntReader(const std::uint8_t* data, std::size_t size) : bytes_(data, size) {
  open_and_index();
}

const std::uint8_t* OsntReader::view_at(std::uint64_t offset, std::uint64_t len) const {
  if (offset > bytes_.size() || len > bytes_.size() - offset)
    throw TraceReadError("read beyond end of trace", offset);
  return bytes_.data() + offset;
}

void OsntReader::open_and_index() {
  const std::uint64_t head_len = std::min<std::uint64_t>(bytes_.size(), 20);
  const std::uint8_t* head = view_at(0, head_len);
  std::size_t pos = 0;
  if (get_varint(head, static_cast<std::size_t>(head_len), pos) != osnt::kMagic)
    throw TraceReadError("bad magic: not an OSNT trace", 0);
  const std::uint64_t version = get_varint(head, static_cast<std::size_t>(head_len), pos);
  data_begin_ = pos;
  if (version >= 1 && version < kOsntVersion)
    throw TraceReadError("OSNT v" + std::to_string(version) +
                             " file: convert it with `osn-analyze upgrade IN OUT`",
                         pos);
  if (version != kOsntVersion) throw TraceReadError("unsupported OSNT version", pos);
  if (!parse_trailer_and_index()) {
    chunks_.clear();
    index_summary_.reset();
    index_recovered_ = true;
    recover_by_scan();
  }
  // Chunks slice the one (timestamp, cpu) record order, so their index time
  // ranges must be sorted. A file whose index is not cannot answer a window
  // (the chunk search would miss records): every read refuses it, and
  // verify() names the chunk.
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    const ChunkInfo& c = chunks_[i];
    if (c.t_last < c.t_first || (i > 0 && c.t_first < chunks_[i - 1].t_last)) {
      index_order_ =
          ChunkIssue{static_cast<std::int64_t>(i), c.offset,
                     "records not in (timestamp, cpu) order: chunk index time ranges go back"};
      open_issues_.push_back(*index_order_);
      break;
    }
  }
}

bool OsntReader::parse_trailer_and_index() {
  const std::uint64_t size = bytes_.size();
  if (size < data_begin_ + osnt::kTrailerSize) return false;
  const std::uint8_t* trailer = view_at(size - osnt::kTrailerSize, osnt::kTrailerSize);
  std::size_t tpos = 0;
  const std::uint64_t index_offset = osnt::get_u64le(trailer, osnt::kTrailerSize, tpos);
  const std::uint64_t footer_offset = osnt::get_u64le(trailer, osnt::kTrailerSize, tpos);
  const std::uint32_t flags = osnt::get_u32le(trailer, osnt::kTrailerSize, tpos);
  if (osnt::get_u32le(trailer, osnt::kTrailerSize, tpos) != osnt::kTrailerMagic)
    return false;

  const std::uint64_t index_end = size - osnt::kTrailerSize;
  if (index_offset < data_begin_ || index_offset + 5 > index_end) return false;
  const std::uint8_t* idx = view_at(index_offset, index_end - index_offset);
  const auto isize = static_cast<std::size_t>(index_end - index_offset);

  // Entries first, then their CRC; an optional pre-aggregate block may
  // follow (files written without one end the region at the entries CRC).
  std::size_t ipos = 0;
  std::uint64_t n_chunks = 0;
  try {
    n_chunks = get_varint(idx, isize, ipos);
    if (n_chunks > isize / 6 + 1) return false;
    std::uint64_t prev_end = data_begin_;
    chunks_.reserve(static_cast<std::size_t>(n_chunks));
    for (std::uint64_t i = 0; i < n_chunks; ++i) {
      ChunkInfo c;
      c.offset = get_varint(idx, isize, ipos);
      c.records = get_varint(idx, isize, ipos);
      c.payload_len = get_varint(idx, isize, ipos);
      c.t_first = get_varint(idx, isize, ipos);
      c.t_last = c.t_first + get_varint(idx, isize, ipos);
      c.cpu_mask = get_varint(idx, isize, ipos);
      if (c.records == 0 || c.offset < prev_end || c.payload_len > index_offset ||
          c.offset + c.payload_len > index_offset)
        return false;
      prev_end = c.offset;  // offsets strictly increase chunk to chunk
      chunks_.push_back(c);
    }
  } catch (const TraceReadError&) {
    return false;
  }
  if (ipos + 4 > isize) return false;
  std::size_t cpos = ipos;
  const std::uint32_t stored_crc = osnt::get_u32le(idx, isize, cpos);
  if (crc32(idx, ipos) != stored_crc) return false;

  truncated_ = (flags & osnt::kFlagTruncated) != 0;
  if (truncated_) {
    synthesize_truncated_meta();
    return true;
  }
  if (footer_offset < data_begin_ || footer_offset >= index_offset) return false;
  try {
    const std::uint64_t footer_end = parse_footer(footer_offset, index_offset);
    if (footer_end != index_offset)
      throw TraceReadError("trailing bytes after trace footer", footer_end);
  } catch (const TraceReadError& e) {
    // Index intact but footer rotted: salvage the records, surface the
    // problem through verify()/truncated() instead of refusing the file.
    open_issues_.push_back(
        ChunkIssue{TraceReadError::kNoChunk, e.byte_offset(), e.what()});
    truncated_ = true;
    tasks_.clear();
    synthesize_truncated_meta();
  }
  if (!truncated_ && cpos < isize)
    parse_aggregate_block(idx, isize, cpos, static_cast<std::size_t>(n_chunks),
                          index_offset);
  return true;
}

void OsntReader::parse_aggregate_block(const std::uint8_t* idx, std::size_t size,
                                       std::size_t pos, std::size_t n_chunks,
                                       std::uint64_t base_offset) {
  // Damage here never fails the open: the aggregates are an accelerator, the
  // chunks remain the ground truth. Rejected blocks surface via verify().
  const std::size_t begin = pos;
  try {
    if (osnt::get_u32le(idx, size, pos) != osnt::kAggMagic)
      throw TraceReadError("unrecognized bytes after chunk index", base_offset + begin);
    if (get_varint(idx, size, pos) != n_chunks)
      throw TraceReadError("aggregate chunk count disagrees with index",
                           base_offset + pos);
    IndexSummary summary;
    summary.chunks.resize(n_chunks);
    for (std::size_t i = 0; i < n_chunks; ++i)
      osnt::get_aggregate(idx, size, pos, summary.chunks[i]);
    osnt::get_aggregate(idx, size, pos, summary.tail);
    const std::size_t block_end = pos;
    if (osnt::get_u32le(idx, size, pos) !=
        crc32(idx + begin, block_end - begin))
      throw TraceReadError("aggregate block CRC mismatch", base_offset + begin);
    if (pos != size)
      throw TraceReadError("trailing bytes after aggregate block", base_offset + pos);
    index_summary_ = std::move(summary);
  } catch (const TraceReadError& e) {
    index_summary_.reset();
    open_issues_.push_back(ChunkIssue{TraceReadError::kNoChunk, e.byte_offset(), e.what()});
  }
}

std::uint64_t OsntReader::parse_footer(std::uint64_t footer_offset, std::uint64_t end) {
  const std::uint8_t* footer = view_at(footer_offset, end - footer_offset);
  const auto fsize = static_cast<std::size_t>(end - footer_offset);
  std::size_t pos = 0;
  TraceMeta meta;
  std::map<Pid, TaskInfo> tasks;
  try {
    osnt::get_meta_and_tasks(footer, fsize, pos, meta, tasks);
    osnt::get_drain(footer, fsize, pos, meta.drain);
  } catch (const TraceReadError& e) {
    throw TraceReadError(e.what(), footer_offset + e.byte_offset());
  }
  if (meta.n_cpus > kMaxCpus)
    throw TraceReadError("footer n_cpus out of range", footer_offset);
  meta_ = std::move(meta);
  tasks_ = std::move(tasks);
  return footer_offset + pos;
}

void OsntReader::recover_by_scan() {
  // The trailer or index is unusable (killed writer, torn tail, bit rot in
  // the index). Walk the chunk stream from the front, CRC-checking each
  // chunk, and keep everything up to the first corrupt byte. Every access is
  // a view of the mapping, so recovery of a damaged multi-GiB file never
  // copies it.
  const std::uint64_t size = bytes_.size();
  std::uint64_t pos = data_begin_;
  bool footer_ok = false;
  // No trustworthy metadata yet: bound cpu ids by the format limit only.
  ChunkDecoder dec(kMaxCpus);
  for (;;) {
    if (pos >= size) {
      truncated_ = true;
      break;
    }
    std::uint64_t count = 0, payload_len = 0;
    std::uint64_t header_len = 0;
    try {
      const std::uint64_t hlen = std::min<std::uint64_t>(size - pos, 20);
      const std::uint8_t* head = view_at(pos, hlen);
      std::size_t hpos = 0;
      count = get_varint(head, static_cast<std::size_t>(hlen), hpos);
      if (count != 0) payload_len = get_varint(head, static_cast<std::size_t>(hlen), hpos);
      header_len = hpos;
    } catch (const TraceReadError& e) {
      truncated_ = true;
      open_issues_.push_back(ChunkIssue{static_cast<std::int64_t>(chunks_.size()),
                                        e.byte_offset(), e.what()});
      break;
    }
    if (count == 0) {
      // Terminator: a footer should follow. Whatever comes after it is the
      // damaged index we just rebuilt, so trailing bytes are expected.
      try {
        parse_footer(pos + header_len, size);
        footer_ok = true;
      } catch (const TraceReadError& e) {
        truncated_ = true;
        open_issues_.push_back(ChunkIssue{TraceReadError::kNoChunk, e.byte_offset(), e.what()});
      }
      break;
    }
    ChunkInfo c;
    c.offset = pos;
    c.records = count;
    c.payload_len = payload_len;
    const auto id = static_cast<std::int64_t>(chunks_.size());
    try {
      if (payload_len > size - pos - header_len || 4 > size - pos - header_len - payload_len)
        throw TraceReadError("chunk extends past end of trace", pos, id);
      const std::uint8_t* body = view_at(pos + header_len, payload_len + 4);
      check_crc(body, payload_len, pos + header_len, id);
      const ChunkSpan span =
          dec.walk(body, static_cast<std::size_t>(payload_len), count, pos + header_len, id,
                   [](const tracebuf::EventRecord&, CpuState&) {});
      c.t_first = span.first.ts;
      c.t_last = span.last.ts;
      c.cpu_mask = span.cpu_mask;
    } catch (const TraceReadError& e) {
      truncated_ = true;
      open_issues_.push_back(ChunkIssue{id, e.byte_offset(), e.what()});
      break;
    }
    chunks_.push_back(c);
    pos += header_len + payload_len + 4;
  }
  if (!footer_ok && meta_.n_cpus == 0) synthesize_truncated_meta();
}

void OsntReader::synthesize_truncated_meta() {
  meta_ = TraceMeta{};
  meta_.workload = "(truncated)";
  std::uint64_t mask = 0;
  for (const ChunkInfo& c : chunks_) mask |= c.cpu_mask;
  std::uint16_t n_cpus = 0;
  for (std::uint16_t bit = 0; bit < 64; ++bit)
    if ((mask >> bit) & 1) n_cpus = static_cast<std::uint16_t>(bit + 1);
  meta_.n_cpus = n_cpus;
  meta_.start_ns = 0;
  meta_.end_ns = chunks_.empty() ? 0 : chunks_.back().t_last + 1;
}

std::uint64_t OsntReader::indexed_records() const {
  std::uint64_t n = 0;
  for (const ChunkInfo& c : chunks_) n += c.records;
  return n;
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

std::size_t OsntReader::decode_cpu_bound() const {
  // Intact files bound records by the footer's cpu count; without a footer
  // (truncation) only the format-wide limit applies. Both keep a hostile cpu
  // varint from driving unbounded per-cpu allocations.
  if (truncated_) return static_cast<std::size_t>(kMaxCpus);
  return meta_.n_cpus;
}

const std::uint8_t* OsntReader::chunk_payload(std::size_t i, std::uint64_t& payload_off) const {
  const ChunkInfo& c = chunks_[i];
  const auto id = static_cast<std::int64_t>(i);
  const std::uint64_t hlen = std::min<std::uint64_t>(bytes_.size() - c.offset, 20);
  const std::uint8_t* head = view_at(c.offset, hlen);
  std::size_t hpos = 0;
  const std::uint64_t count = get_varint(head, static_cast<std::size_t>(hlen), hpos);
  const std::uint64_t payload_len = get_varint(head, static_cast<std::size_t>(hlen), hpos);
  if (count != c.records || payload_len != c.payload_len)
    throw TraceReadError("chunk header disagrees with index", c.offset, id);
  payload_off = c.offset + hpos;
  const std::uint8_t* body = view_at(payload_off, c.payload_len + 4);
  check_crc(body, c.payload_len, payload_off, id);
  return body;
}

void OsntReader::require_ordered_index() const {
  if (index_order_)
    throw TraceReadError(index_order_->problem, index_order_->offset, index_order_->chunk);
}

namespace {

/// Widens a truncated file's synthesized meta to the streams a read decoded
/// (a cpu past the index's 63-bit mask, records past the last chunk's
/// t_last). Only the returned model sees this; the reader's meta() stays as
/// opened, so concurrent readers never observe it change.
void refine_truncated_meta(TraceMeta& meta,
                           const std::vector<std::vector<tracebuf::EventRecord>>& per_cpu) {
  TimeNs last_seen = 0;
  for (const auto& stream : per_cpu)
    if (!stream.empty()) last_seen = std::max(last_seen, stream.back().timestamp);
  meta.n_cpus = static_cast<std::uint16_t>(per_cpu.size());
  meta.end_ns = std::max(meta.end_ns, last_seen + 1);
}

/// Read-side counterpart for a private file mapping: fault the region in one
/// batched kernel pass instead of one page trap per 4 KiB as the decode
/// walks it. POPULATE_READ, not WRITE — write-populating a MAP_PRIVATE
/// mapping would COW-copy every page. Advisory; failure means ordinary
/// demand paging.
void prefault_readable(const void* data, std::size_t bytes) {
#if defined(MADV_POPULATE_READ)
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = addr & ~(page - 1);
  const std::uintptr_t hi = (addr + bytes + page - 1) & ~(page - 1);
  (void)::madvise(reinterpret_cast<void*>(lo), static_cast<std::size_t>(hi - lo),
                  MADV_POPULATE_READ);
#else
  (void)data;
  (void)bytes;
#endif
}

/// Runs fn(k, decoder) for every k in [0, n) and returns what each k threw.
/// Serially, or on the pool in contiguous slices (a few per thread), each
/// slice with its own decoder, so per-cpu decode state costs O(threads x
/// cpus) at most.
template <class Fn>
std::vector<std::exception_ptr> for_chunks(std::size_t n, ThreadPool* pool,
                                           std::size_t cpu_bound, Fn&& fn) {
  std::vector<std::exception_ptr> errors(n);
  const std::size_t slices =
      std::min(n, pool == nullptr ? std::size_t{1} : 4 * (pool->worker_count() + 1));
  const auto run_slice = [&](std::size_t s) {
    ChunkDecoder dec(cpu_bound);
    for (std::size_t k = n * s / slices; k < n * (s + 1) / slices; ++k) {
      try {
        fn(k, dec);
      } catch (...) {
        errors[k] = std::current_exception();
      }
    }
  };
  if (slices > 1) {
    pool->parallel_for(slices, run_slice);
  } else if (slices == 1) {
    run_slice(0);
  }
  return errors;
}

/// One cpu's records in one chunk, and where they go in that cpu's stream.
struct CpuRun {
  std::size_t cpu = 0;
  std::size_t count = 0;
  std::size_t slot = 0;
};

}  // namespace

TraceModel OsntReader::decode(const std::vector<std::size_t>& ids, ThreadPool* pool) const {
  require_ordered_index();
  const std::size_t n = ids.size();
  const std::size_t cpu_bound = decode_cpu_bound();

  // The decode touches every selected chunk byte twice; fault the mapping in
  // bulk up front rather than a trap at a time during the first walk.
  if (map_.valid() && n > 0) {
    const std::uint64_t begin = chunks_[ids.front()].offset;
    const ChunkInfo& last = chunks_[ids.back()];
    const std::uint64_t end =
        std::min<std::uint64_t>(bytes_.size(), last.offset + 20 + last.payload_len + 4);
    prefault_readable(bytes_.data() + begin, static_cast<std::size_t>(end - begin));
  }

  // Pass 1: verify each chunk's header against the index and its CRC, and
  // count its records per cpu into a sparse list — at most min(records,
  // cpus) entries, never a chunks x cpus table.
  std::vector<std::vector<CpuRun>> runs(n);
  const std::vector<std::exception_ptr> errors = for_chunks(
      n, pool, cpu_bound,
      [&](std::size_t k, ChunkDecoder& dec) {
        std::uint64_t payload_off = 0;
        const std::uint8_t* payload = chunk_payload(ids[k], payload_off);
        const ChunkInfo& c = chunks_[ids[k]];
        std::vector<CpuRun>& mine = runs[k];
        dec.count(payload, static_cast<std::size_t>(c.payload_len), c.records, payload_off,
                  static_cast<std::int64_t>(ids[k]),
                  [&](std::size_t cpu) { mine.push_back(CpuRun{cpu, 0, 0}); });
        for (CpuRun& r : mine) r.count = dec.state(r.cpu).n;
      });
  // Only the chunks before the first pass-1 failure are decoded: an earlier
  // chunk's order error must still win over it.
  const auto failed = static_cast<std::size_t>(
      std::find_if(errors.begin(), errors.end(), [](const auto& e) { return e != nullptr; }) -
      errors.begin());

  // Prefix sums give every chunk its slots in each cpu stream. Intact files
  // have exactly meta.n_cpus streams; truncated ones grow to the highest cpu
  // decoded.
  std::size_t n_streams = meta_.n_cpus;
  for (std::size_t k = 0; k < failed; ++k)
    for (const CpuRun& r : runs[k]) n_streams = std::max(n_streams, r.cpu + 1);
  std::vector<std::size_t> totals(n_streams, 0);
  for (std::size_t k = 0; k < failed; ++k)
    for (CpuRun& r : runs[k]) {
      r.slot = totals[r.cpu];
      totals[r.cpu] += r.count;
    }
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(n_streams);
  for (std::size_t cpu = 0; cpu < n_streams; ++cpu) per_cpu[cpu].resize(totals[cpu]);

  // Pass 2: decode every chunk straight into its slots, checking the record
  // order and the index entry on the way. Cpus first appear in the order
  // pass 1 listed them. Chunks own disjoint slots, so the pool writes them
  // without locks; the bound check only fires if the bytes changed since
  // pass 1 (a file rewritten underneath).
  std::vector<ChunkSpan> spans(failed);
  const std::vector<std::exception_ptr> errors2 = for_chunks(
      failed, pool, cpu_bound,
      [&](std::size_t k, ChunkDecoder& dec) {
        std::uint64_t payload_off = 0;
        const std::uint8_t* payload = chunk_payload(ids[k], payload_off);
        const std::vector<CpuRun>& mine = runs[k];
        const ChunkInfo& c = chunks_[ids[k]];
        std::size_t next = 0;  // the next cpu of `mine` to appear
        spans[k] = walk_indexed(
            dec, payload, payload_off, c, ids[k],
            [&](const tracebuf::EventRecord& rec, CpuState& s) {
              if (s.end == 0 && next < mine.size() && mine[next].cpu == rec.cpu) {
                s.n = mine[next].slot;
                s.end = s.n + mine[next++].count;
              }
              if (s.n == s.end)
                throw TraceReadError("chunk changed while it was read", c.offset,
                                     static_cast<std::int64_t>(ids[k]));
              per_cpu[rec.cpu][s.n++] = rec;
            });
      });
  // The lowest chunk's failure wins, whatever the pool did first.
  for (std::size_t k = 0; k < failed; ++k) {
    if (errors2[k]) std::rethrow_exception(errors2[k]);
    if (k > 0) check_boundary(spans[k - 1], spans[k], chunks_[ids[k]], ids[k]);
  }
  if (failed < n) std::rethrow_exception(errors[failed]);

  TraceMeta meta = meta_;
  if (truncated_) refine_truncated_meta(meta, per_cpu);
  return TraceModel(std::move(meta), std::move(per_cpu), tasks_);
}

TraceModel OsntReader::read_all(ThreadPool* pool) const {
  std::vector<std::size_t> ids(chunks_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  return decode(ids, pool);
}

std::pair<std::size_t, std::size_t> OsntReader::window_chunk_range(TimeNs t0,
                                                                   TimeNs t1) const {
  if (t1 <= t0 || chunks_.empty()) return {0, 0};
  // Chunks slice the global merged stream, so their time ranges are sorted
  // (checked at open): binary-search the first chunk that can reach t0, walk
  // to the last whose t_first is below t1.
  const auto first = std::partition_point(chunks_.begin(), chunks_.end(),
                                          [t0](const ChunkInfo& c) { return c.t_last < t0; });
  auto last = first;
  while (last != chunks_.end() && last->t_first < t1) ++last;
  return {static_cast<std::size_t>(first - chunks_.begin()),
          static_cast<std::size_t>(last - chunks_.begin())};
}

TraceModel OsntReader::read_chunks(const std::vector<std::size_t>& ids,
                                   ThreadPool* pool) const {
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (ids[i] >= chunks_.size() || (i > 0 && ids[i] <= ids[i - 1]))
      throw TraceReadError("chunk ids must be strictly increasing and in range", 0);
  return decode(ids, pool);
}

TraceModel OsntReader::read_window(TimeNs t0, TimeNs t1, ThreadPool* pool) const {
  const auto [first, last] = window_chunk_range(t0, t1);
  std::vector<std::size_t> ids(last - first);
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = first + i;
  return window_of(read_chunks(ids, pool), t0, t1);
}

void OsntReader::for_each(
    const std::function<void(const tracebuf::EventRecord&)>& fn) const {
  require_ordered_index();
  ChunkDecoder dec(decode_cpu_bound());
  std::vector<tracebuf::EventRecord> records;
  ChunkSpan prev;
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    // A chunk is checked whole before any of its records is handed out.
    std::uint64_t payload_off = 0;
    const std::uint8_t* payload = chunk_payload(i, payload_off);
    records.clear();
    const ChunkSpan span =
        walk_indexed(dec, payload, payload_off, chunks_[i], i,
                     [&](const tracebuf::EventRecord& rec, CpuState&) { records.push_back(rec); });
    if (i > 0) check_boundary(prev, span, chunks_[i], i);
    prev = span;
    for (const auto& rec : records) fn(rec);
  }
}

// ---------------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------------

VerifyReport OsntReader::verify() const {
  VerifyReport report;
  report.truncated = truncated_;
  report.index_recovered = index_recovered_;
  report.issues = open_issues_;
  report.chunks = chunks_.size();

  ChunkDecoder dec(decode_cpu_bound());
  std::optional<ChunkSpan> prev;  // the last chunk that decoded
  for (std::size_t i = 0; i < chunks_.size(); ++i) {
    try {
      std::uint64_t payload_off = 0;
      const std::uint8_t* payload = chunk_payload(i, payload_off);
      const ChunkSpan span = walk_indexed(dec, payload, payload_off, chunks_[i], i,
                                          [](const tracebuf::EventRecord&, CpuState&) {});
      // Each break in the order is reported once: at the chunk where it
      // happens, and not again where an unsorted index already named it.
      const std::optional<ChunkSpan> before = std::exchange(prev, span);
      if (before && !index_order_) check_boundary(*before, span, chunks_[i], i);
      report.records += chunks_[i].records;
    } catch (const TraceReadError& e) {
      report.issues.push_back(
          ChunkIssue{static_cast<std::int64_t>(i), e.byte_offset(), e.what()});
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Window clipping (shared with the query engine and EventSource)
// ---------------------------------------------------------------------------

TraceModel window_of(const TraceModel& model, TimeNs t0, TimeNs t1) {
  std::vector<std::vector<tracebuf::EventRecord>> per_cpu(model.cpu_count());
  for (CpuId c = 0; c < model.cpu_count(); ++c) {
    const auto& stream = model.cpu_events(c);
    // The window slice of this cpu's (time-sorted) stream.
    const auto lo = std::partition_point(
        stream.begin(), stream.end(),
        [t0](const tracebuf::EventRecord& r) { return r.timestamp < t0; });
    const auto hi = std::partition_point(
        lo, stream.end(), [t1](const tracebuf::EventRecord& r) { return r.timestamp < t1; });
    const auto n = static_cast<std::size_t>(hi - lo);

    // Frame repair: drop exits whose entry predates the window, and entries
    // whose exit postdates it, so pairing stays balanced. Nesting is proper
    // per CPU, so removing an unmatched frame never unbalances another.
    std::vector<bool> drop(n, false);
    std::vector<std::size_t> stack;
    for (std::size_t i = 0; i < n; ++i) {
      const auto type = static_cast<EventType>(lo[static_cast<std::ptrdiff_t>(i)].event);
      if (is_entry(type)) {
        stack.push_back(i);
      } else if (is_exit(type)) {
        if (stack.empty()) {
          drop[i] = true;  // entry happened before t0
        } else {
          stack.pop_back();
        }
      }
    }
    for (const std::size_t i : stack) drop[i] = true;  // exit happens after t1

    auto& dst = per_cpu[c];
    dst.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      if (!drop[i]) dst.push_back(lo[static_cast<std::ptrdiff_t>(i)]);
  }
  TraceMeta meta = model.meta();
  meta.start_ns = std::max(meta.start_ns, t0);
  meta.end_ns = std::min(meta.end_ns, t1);
  if (meta.end_ns < meta.start_ns) meta.end_ns = meta.start_ns;
  return TraceModel(std::move(meta), std::move(per_cpu), model.tasks());
}

}  // namespace osn::trace
