#include "trace/trace_format.h"

#include <atomic>

#include "util/coding.h"
#include "util/crc32c.h"

namespace rocksmash {
namespace trace {

namespace {

// Keep in sync with TraceRecordType (trace_format.h) and the record-type
// table in docs/TRACING.md; tools/lint.py enforces all three.
const char* const kTraceRecordTypeNames[] = {
    "header",        // kTraceHeader
    "put",           // kTracePut
    "delete",        // kTraceDelete
    "write_batch",   // kTraceWriteBatch
    "get",           // kTraceGet
    "multiget",      // kTraceMultiGet
    "new_iterator",  // kTraceNewIterator
    "iter_seek",     // kTraceIterSeek
    "iter_next",     // kTraceIterNext
    "span",          // kTraceSpan
    "footer",        // kTraceFooter
};
static_assert(sizeof(kTraceRecordTypeNames) / sizeof(kTraceRecordTypeNames[0]) ==
                  TRACE_RECORD_TYPE_MAX,
              "trace record name table out of sync with TraceRecordType");

const char* const kSpanKindNames[] = {
    "queue_wait",    // kSpanQueueWait
    "wal_sync",      // kSpanWalSync
    "flush",         // kSpanFlush
    "compaction",    // kSpanCompaction
    "cloud_get",     // kSpanCloudGet
    "cloud_put",     // kSpanCloudPut
    "upload_job",    // kSpanUploadJob
    "pcache_admit",  // kSpanPcacheAdmit
    "pcache_evict",  // kSpanPcacheEvict
    "fetch_wait",    // kSpanFetchWait
};
static_assert(sizeof(kSpanKindNames) / sizeof(kSpanKindNames[0]) ==
                  SPAN_KIND_MAX,
              "span kind name table out of sync with SpanKind");

// Frames `payload` (varint32 length | fixed32 masked crc | payload) onto dst.
void AppendFramed(const std::string& payload, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(payload.size()));
  PutFixed32(dst, crc32c::Mask(crc32c::Value(payload.data(), payload.size())));
  dst->append(payload);
}

// Common prelude for op records: type | ts_delta | thread_id.
void StartOpPayload(uint8_t type, uint64_t ts, uint32_t tid, std::string* p) {
  p->push_back(static_cast<char>(type));
  PutVarint64(p, ts);
  PutVarint32(p, tid);
}

bool GetBool(Slice* input, bool* value) {
  if (input->empty()) return false;
  uint8_t b = static_cast<uint8_t>((*input)[0]);
  if (b > 1) return false;  // only 0/1 are valid encodings
  *value = (b != 0);
  input->remove_prefix(1);
  return true;
}

}  // namespace

const char* TraceRecordTypeName(uint8_t type) {
  if (type >= TRACE_RECORD_TYPE_MAX) return "unknown";
  return kTraceRecordTypeNames[type];
}

const char* SpanKindName(uint8_t kind) {
  if (kind >= SPAN_KIND_MAX) return "unknown";
  return kSpanKindNames[kind];
}

void EncodeHeaderRecord(uint64_t start_micros, uint64_t sampling_frequency,
                        std::string* dst) {
  std::string p;
  p.push_back(static_cast<char>(kTraceHeader));
  PutFixed64(&p, kTraceMagic);
  PutVarint32(&p, kTraceFormatVersion);
  PutVarint64(&p, start_micros);
  PutVarint64(&p, sampling_frequency);
  AppendFramed(p, dst);
}

void EncodePutRecord(uint64_t ts, uint32_t tid, const Slice& key,
                     const Slice& value, bool sync, std::string* dst) {
  std::string p;
  StartOpPayload(kTracePut, ts, tid, &p);
  PutLengthPrefixedSlice(&p, key);
  PutLengthPrefixedSlice(&p, value);
  p.push_back(sync ? 1 : 0);
  AppendFramed(p, dst);
}

void EncodeDeleteRecord(uint64_t ts, uint32_t tid, const Slice& key, bool sync,
                        std::string* dst) {
  std::string p;
  StartOpPayload(kTraceDelete, ts, tid, &p);
  PutLengthPrefixedSlice(&p, key);
  p.push_back(sync ? 1 : 0);
  AppendFramed(p, dst);
}

void EncodeWriteBatchRecord(uint64_t ts, uint32_t tid, const Slice& rep,
                            bool sync, std::string* dst) {
  std::string p;
  StartOpPayload(kTraceWriteBatch, ts, tid, &p);
  PutLengthPrefixedSlice(&p, rep);
  p.push_back(sync ? 1 : 0);
  AppendFramed(p, dst);
}

void EncodeGetRecord(uint64_t ts, uint32_t tid, const Slice& key,
                     bool snapshot_use, std::string* dst) {
  std::string p;
  StartOpPayload(kTraceGet, ts, tid, &p);
  PutLengthPrefixedSlice(&p, key);
  p.push_back(snapshot_use ? 1 : 0);
  AppendFramed(p, dst);
}

void EncodeMultiGetRecord(uint64_t ts, uint32_t tid,
                          const std::vector<Slice>& keys, std::string* dst) {
  std::string p;
  StartOpPayload(kTraceMultiGet, ts, tid, &p);
  PutVarint32(&p, static_cast<uint32_t>(keys.size()));
  for (const Slice& k : keys) {
    PutLengthPrefixedSlice(&p, k);
  }
  AppendFramed(p, dst);
}

void EncodeNewIteratorRecord(uint64_t ts, uint32_t tid, uint64_t iter_id,
                             bool snapshot_use, std::string* dst) {
  std::string p;
  StartOpPayload(kTraceNewIterator, ts, tid, &p);
  PutVarint64(&p, iter_id);
  p.push_back(snapshot_use ? 1 : 0);
  AppendFramed(p, dst);
}

void EncodeIterSeekRecord(uint64_t ts, uint32_t tid, uint64_t iter_id,
                          SeekMode mode, const Slice& key, std::string* dst) {
  std::string p;
  StartOpPayload(kTraceIterSeek, ts, tid, &p);
  PutVarint64(&p, iter_id);
  p.push_back(static_cast<char>(mode));
  PutLengthPrefixedSlice(&p, key);
  AppendFramed(p, dst);
}

void EncodeIterNextRecord(uint64_t ts, uint32_t tid, uint64_t iter_id,
                          std::string* dst) {
  std::string p;
  StartOpPayload(kTraceIterNext, ts, tid, &p);
  PutVarint64(&p, iter_id);
  AppendFramed(p, dst);
}

void EncodeSpanRecord(uint32_t tid, uint8_t kind, uint64_t start_micros,
                      uint64_t duration_micros, uint64_t bytes, uint64_t detail,
                      std::string* dst) {
  std::string p;
  // Spans reuse the op prelude with ts = span end (start + duration), so a
  // plain scan of the file still sees loosely increasing timestamps.
  StartOpPayload(kTraceSpan, start_micros + duration_micros, tid, &p);
  p.push_back(static_cast<char>(kind));
  PutVarint64(&p, start_micros);
  PutVarint64(&p, duration_micros);
  PutVarint64(&p, bytes);
  PutVarint64(&p, detail);
  AppendFramed(p, dst);
}

void EncodeFooterRecord(uint64_t end_micros, uint64_t records_written,
                        uint64_t records_dropped, std::string* dst) {
  std::string p;
  p.push_back(static_cast<char>(kTraceFooter));
  PutVarint64(&p, end_micros);
  PutVarint64(&p, records_written);
  PutVarint64(&p, records_dropped);
  AppendFramed(p, dst);
}

Status DecodeRecordPayload(Slice payload, TraceRecord* rec) {
  *rec = TraceRecord();
  if (payload.empty()) {
    return Status::Corruption("trace record: empty payload");
  }
  uint8_t type = static_cast<uint8_t>(payload[0]);
  payload.remove_prefix(1);
  if (type >= TRACE_RECORD_TYPE_MAX) {
    return Status::Corruption("trace record: unknown type");
  }
  rec->type = type;

  if (type == kTraceHeader) {
    uint64_t magic = 0;
    if (!GetFixed64(&payload, &magic) || magic != kTraceMagic) {
      return Status::Corruption("trace header: bad magic");
    }
    if (!GetVarint32(&payload, &rec->version)) {
      return Status::Corruption("trace header: truncated version");
    }
    if (rec->version == 0 || rec->version > kTraceFormatVersion) {
      return Status::Corruption("trace header: unsupported version");
    }
    if (!GetVarint64(&payload, &rec->start_micros) ||
        !GetVarint64(&payload, &rec->sampling_frequency)) {
      return Status::Corruption("trace header: truncated fields");
    }
    if (!payload.empty()) {
      return Status::Corruption("trace header: trailing bytes");
    }
    return Status::OK();
  }

  if (type == kTraceFooter) {
    if (!GetVarint64(&payload, &rec->end_micros) ||
        !GetVarint64(&payload, &rec->records_written) ||
        !GetVarint64(&payload, &rec->records_dropped)) {
      return Status::Corruption("trace footer: truncated fields");
    }
    if (!payload.empty()) {
      return Status::Corruption("trace footer: trailing bytes");
    }
    return Status::OK();
  }

  // Everything else carries the op prelude.
  if (!GetVarint64(&payload, &rec->ts_micros) ||
      !GetVarint32(&payload, &rec->thread_id)) {
    return Status::Corruption("trace record: truncated prelude");
  }

  Slice s;
  switch (type) {
    case kTracePut:
      if (!GetLengthPrefixedSlice(&payload, &s)) {
        return Status::Corruption("trace put: truncated key");
      }
      rec->key.assign(s.data(), s.size());
      if (!GetLengthPrefixedSlice(&payload, &s)) {
        return Status::Corruption("trace put: truncated value");
      }
      rec->value.assign(s.data(), s.size());
      if (!GetBool(&payload, &rec->sync)) {
        return Status::Corruption("trace put: truncated sync flag");
      }
      break;
    case kTraceDelete:
      if (!GetLengthPrefixedSlice(&payload, &s)) {
        return Status::Corruption("trace delete: truncated key");
      }
      rec->key.assign(s.data(), s.size());
      if (!GetBool(&payload, &rec->sync)) {
        return Status::Corruption("trace delete: truncated sync flag");
      }
      break;
    case kTraceWriteBatch:
      if (!GetLengthPrefixedSlice(&payload, &s)) {
        return Status::Corruption("trace write_batch: truncated rep");
      }
      rec->batch_rep.assign(s.data(), s.size());
      if (!GetBool(&payload, &rec->sync)) {
        return Status::Corruption("trace write_batch: truncated sync flag");
      }
      break;
    case kTraceGet:
      if (!GetLengthPrefixedSlice(&payload, &s)) {
        return Status::Corruption("trace get: truncated key");
      }
      rec->key.assign(s.data(), s.size());
      if (!GetBool(&payload, &rec->snapshot_use)) {
        return Status::Corruption("trace get: truncated snapshot flag");
      }
      break;
    case kTraceMultiGet: {
      uint32_t n = 0;
      if (!GetVarint32(&payload, &n)) {
        return Status::Corruption("trace multiget: truncated count");
      }
      // Each key costs at least one length byte; anything bigger than the
      // remaining payload is a lie.
      if (n > payload.size()) {
        return Status::Corruption("trace multiget: implausible key count");
      }
      rec->keys.reserve(n);
      for (uint32_t i = 0; i < n; i++) {
        if (!GetLengthPrefixedSlice(&payload, &s)) {
          return Status::Corruption("trace multiget: truncated key");
        }
        rec->keys.emplace_back(s.data(), s.size());
      }
      break;
    }
    case kTraceNewIterator:
      if (!GetVarint64(&payload, &rec->iter_id)) {
        return Status::Corruption("trace new_iterator: truncated id");
      }
      if (!GetBool(&payload, &rec->snapshot_use)) {
        return Status::Corruption("trace new_iterator: truncated snapshot flag");
      }
      break;
    case kTraceIterSeek: {
      if (!GetVarint64(&payload, &rec->iter_id)) {
        return Status::Corruption("trace iter_seek: truncated id");
      }
      if (payload.empty()) {
        return Status::Corruption("trace iter_seek: truncated mode");
      }
      uint8_t mode = static_cast<uint8_t>(payload[0]);
      payload.remove_prefix(1);
      if (mode > static_cast<uint8_t>(SeekMode::kSeekToLast)) {
        return Status::Corruption("trace iter_seek: bad mode");
      }
      rec->seek_mode = static_cast<SeekMode>(mode);
      if (!GetLengthPrefixedSlice(&payload, &s)) {
        return Status::Corruption("trace iter_seek: truncated key");
      }
      rec->key.assign(s.data(), s.size());
      break;
    }
    case kTraceIterNext:
      if (!GetVarint64(&payload, &rec->iter_id)) {
        return Status::Corruption("trace iter_next: truncated id");
      }
      break;
    case kTraceSpan: {
      if (payload.empty()) {
        return Status::Corruption("trace span: truncated kind");
      }
      rec->span_kind = static_cast<uint8_t>(payload[0]);
      payload.remove_prefix(1);
      if (rec->span_kind >= SPAN_KIND_MAX) {
        return Status::Corruption("trace span: unknown kind");
      }
      if (!GetVarint64(&payload, &rec->span_start_micros) ||
          !GetVarint64(&payload, &rec->span_duration_micros) ||
          !GetVarint64(&payload, &rec->span_bytes) ||
          !GetVarint64(&payload, &rec->span_detail)) {
        return Status::Corruption("trace span: truncated fields");
      }
      break;
    }
    default:
      return Status::Corruption("trace record: unhandled type");
  }
  if (!payload.empty()) {
    return Status::Corruption("trace record: trailing bytes");
  }
  return Status::OK();
}

Status TraceParser::Next(TraceRecord* rec, bool* eof) {
  *eof = false;
  if (input_.size() == offset_) {
    *eof = true;
    return Status::OK();
  }
  Slice rest(input_.data() + offset_, input_.size() - offset_);
  uint32_t len = 0;
  if (!GetVarint32(&rest, &len)) {
    return Status::Corruption("trace file: truncated record length");
  }
  if (len > kMaxTraceRecordBytes) {
    return Status::Corruption("trace file: oversized record");
  }
  uint32_t masked_crc = 0;
  if (!GetFixed32(&rest, &masked_crc)) {
    return Status::Corruption("trace file: truncated record crc");
  }
  if (rest.size() < len) {
    return Status::Corruption("trace file: truncated record payload");
  }
  Slice payload(rest.data(), len);
  uint32_t actual = crc32c::Value(payload.data(), payload.size());
  if (crc32c::Unmask(masked_crc) != actual) {
    return Status::Corruption("trace file: record crc mismatch");
  }
  Status s = DecodeRecordPayload(payload, rec);
  if (!s.ok()) return s;
  offset_ = static_cast<size_t>(rest.data() + len - input_.data());
  return Status::OK();
}

uint32_t TraceThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace trace
}  // namespace rocksmash
