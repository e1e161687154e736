// Trace file format shared by the capture (Tracer), parse (TraceReader),
// replay (Replayer), and tooling (rocksmash_trace) sides.
//
// A trace file is a flat sequence of length-prefixed, CRC-guarded records:
//
//   record := varint32 payload_len | fixed32 masked_crc32c(payload) | payload
//   payload := type byte | type-specific fields
//
// The first record must be a `header` record (magic + version + sampling);
// the last a `footer` record (record counts). A file that ends before its
// footer — or whose length/CRC framing breaks anywhere — parses to
// Status::Corruption, never a crash: the parser is fuzzed (fuzz_trace) the
// same way as the WAL/SST/MANIFEST parsers.
//
// Op records carry a microsecond timestamp relative to the trace start and
// a compact per-process thread id, so the Replayer can reproduce both the
// recorded timing and the recorded thread structure. Span records carry a
// start/duration pair plus a byte count — the backend timeline (WAL syncs,
// flushes, compactions, cloud GET/PUT, upload jobs, persistent-cache
// admit/evict) that `rocksmash_trace to-chrome` turns into Chrome
// trace-event JSON.
//
// Schema discipline: TraceRecordType, kTraceRecordTypeNames (trace_format.cc)
// and the record-type table in docs/TRACING.md must stay in sync — enforced
// by tools/lint.py (trace-schema rule), same pattern as the metrics registry.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace rocksmash {
namespace trace {

// "rmshtrc1" little-endian.
constexpr uint64_t kTraceMagic = 0x3163727468736d72ull;
constexpr uint32_t kTraceFormatVersion = 1;

// Hard cap on a single record payload (keys + values + batch reps are
// bounded well below this in practice); the parser rejects larger lengths
// as corruption instead of allocating attacker-controlled sizes.
constexpr uint32_t kMaxTraceRecordBytes = 1u << 26;  // 64 MiB

// One entry per user-visible record type in a trace file. Names live in
// kTraceRecordTypeNames and docs/TRACING.md; tools/lint.py keeps the three
// in sync.
enum TraceRecordType : uint8_t {
  kTraceHeader = 0,   // magic, version, start micros, sampling frequency
  kTracePut,          // DB::Put — key, value
  kTraceDelete,       // DB::Delete — key
  kTraceWriteBatch,   // DB::Write — serialized WriteBatch rep
  kTraceGet,          // DB::Get — key, snapshot-use flag
  kTraceMultiGet,     // DB::MultiGet — key list
  kTraceNewIterator,  // DB::NewIterator — iterator id, snapshot-use flag
  kTraceIterSeek,     // Iterator::Seek/SeekToFirst/SeekToLast — id, mode, key
  kTraceIterNext,     // Iterator::Next — iterator id
  kTraceSpan,         // backend span — kind, start, duration, bytes, detail
  kTraceFooter,       // records written/dropped totals
  TRACE_RECORD_TYPE_MAX,
};

// Dotted-free lowercase name of a record type ("put", "iter_seek", ...);
// "unknown" for out-of-range values.
const char* TraceRecordTypeName(uint8_t type);

// Seek flavor carried by kTraceIterSeek.
enum class SeekMode : uint8_t {
  kSeek = 0,
  kSeekToFirst = 1,
  kSeekToLast = 2,
};

// Backend span kinds carried by kTraceSpan records. `detail` is
// kind-specific (file number for cloud/upload spans, level for compactions,
// zero elsewhere).
enum SpanKind : uint8_t {
  kSpanQueueWait = 0,   // writer parked in the write queue
  kSpanWalSync,         // WalManager::Sync on the write path
  kSpanFlush,           // memtable -> L0 table build + install
  kSpanCompaction,      // background compaction job
  kSpanCloudGet,        // one cloud (range) GET, bytes = payload
  kSpanCloudPut,        // one cloud PUT attempt, bytes = object size
  kSpanUploadJob,       // whole async upload job (read + PUT + install)
  kSpanPcacheAdmit,     // persistent-cache block admission
  kSpanPcacheEvict,     // persistent-cache eviction pass, bytes reclaimed
  kSpanFetchWait,       // a read blocked on a cloud fetch in flight
  SPAN_KIND_MAX,
};

// Lowercase name of a span kind ("wal_sync", "cloud_get", ...); "unknown"
// for out-of-range values.
const char* SpanKindName(uint8_t kind);

// Capture knobs for DB::StartTrace.
struct TraceOptions {
  // Record 1 of every N sampled ops per thread (0 and 1 both mean "every
  // op"). Replay fidelity — identical final state — requires 1: sampled-out
  // writes are simply absent from the trace. Iterators are sampled as a
  // unit: a sampled-out NewIterator suppresses that iterator's Seek/Next
  // records too, so the trace never references an unrecorded iterator.
  uint64_t sampling_frequency = 1;

  // Also capture backend spans (WAL sync, flush/compaction, cloud GET/PUT,
  // upload jobs, persistent-cache admit/evict) into the same file. Spans
  // are process-global: one span-tracing capture may be active per process
  // at a time.
  bool trace_spans = true;

  // Stop recording (and count drops) once the trace file would exceed this
  // many bytes. 0 = unlimited.
  uint64_t max_trace_file_size = 0;
};

// A decoded record: `type` selects which fields are meaningful.
struct TraceRecord {
  uint8_t type = kTraceHeader;
  uint64_t ts_micros = 0;   // Op records: micros since trace start.
  uint32_t thread_id = 0;   // Compact per-trace thread id.

  // kTraceHeader.
  uint32_t version = 0;
  uint64_t start_micros = 0;  // Absolute capture start (SystemClock).
  uint64_t sampling_frequency = 1;

  // kTracePut / kTraceDelete / kTraceGet / kTraceIterSeek.
  std::string key;
  // kTracePut.
  std::string value;
  // kTraceWriteBatch: the serialized WriteBatch rep.
  std::string batch_rep;
  // kTraceGet / kTraceNewIterator: op read as of an explicit snapshot.
  bool snapshot_use = false;
  // kTracePut / kTraceDelete / kTraceWriteBatch: WriteOptions::sync.
  bool sync = false;
  // kTraceMultiGet.
  std::vector<std::string> keys;
  // kTraceNewIterator / kTraceIterSeek / kTraceIterNext.
  uint64_t iter_id = 0;
  SeekMode seek_mode = SeekMode::kSeek;

  // kTraceSpan.
  uint8_t span_kind = 0;
  uint64_t span_start_micros = 0;  // Micros since trace start.
  uint64_t span_duration_micros = 0;
  uint64_t span_bytes = 0;
  uint64_t span_detail = 0;

  // kTraceFooter.
  uint64_t records_written = 0;
  uint64_t records_dropped = 0;
  uint64_t end_micros = 0;  // Micros since trace start at EndTrace.
};

// Encoders: append one framed record (length prefix + CRC + payload) to
// *dst. The ts/thread prelude is included for op records; header, span and
// footer records use their own layouts.
void EncodeHeaderRecord(uint64_t start_micros, uint64_t sampling_frequency,
                        std::string* dst);
void EncodePutRecord(uint64_t ts, uint32_t tid, const Slice& key,
                     const Slice& value, bool sync, std::string* dst);
void EncodeDeleteRecord(uint64_t ts, uint32_t tid, const Slice& key, bool sync,
                        std::string* dst);
void EncodeWriteBatchRecord(uint64_t ts, uint32_t tid, const Slice& rep,
                            bool sync, std::string* dst);
void EncodeGetRecord(uint64_t ts, uint32_t tid, const Slice& key,
                     bool snapshot_use, std::string* dst);
void EncodeMultiGetRecord(uint64_t ts, uint32_t tid,
                          const std::vector<Slice>& keys, std::string* dst);
void EncodeNewIteratorRecord(uint64_t ts, uint32_t tid, uint64_t iter_id,
                             bool snapshot_use, std::string* dst);
void EncodeIterSeekRecord(uint64_t ts, uint32_t tid, uint64_t iter_id,
                          SeekMode mode, const Slice& key, std::string* dst);
void EncodeIterNextRecord(uint64_t ts, uint32_t tid, uint64_t iter_id,
                          std::string* dst);
void EncodeSpanRecord(uint32_t tid, uint8_t kind, uint64_t start_micros,
                      uint64_t duration_micros, uint64_t bytes, uint64_t detail,
                      std::string* dst);
void EncodeFooterRecord(uint64_t end_micros, uint64_t records_written,
                        uint64_t records_dropped, std::string* dst);

// Streaming decoder over an in-memory trace image. Validates framing (length
// prefix, CRC) and per-type payload shape; any violation — including a file
// that simply ends mid-record — is Status::Corruption.
class TraceParser {
 public:
  explicit TraceParser(Slice input) : input_(input) {}

  // Decodes the next record into *rec. Returns OK with *eof=false on a
  // record, OK with *eof=true at clean end-of-input (*rec untouched), and
  // Corruption on any framing or payload violation. Does NOT enforce
  // header-first/footer-last — TraceReader layers that file-level contract.
  Status Next(TraceRecord* rec, bool* eof);

  // Offset of the next unread byte (diagnostics).
  size_t offset() const { return offset_; }

 private:
  Slice input_;
  size_t offset_ = 0;
};

// Decodes one framed record payload (past the length/CRC framing).
Status DecodeRecordPayload(Slice payload, TraceRecord* rec);

// Compact per-process thread id used in trace records (and Chrome tids):
// assigned on first use, stable for the thread's lifetime.
uint32_t TraceThreadId();

}  // namespace trace
}  // namespace rocksmash
