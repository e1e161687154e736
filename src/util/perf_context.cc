#include "util/perf_context.h"

#include <cstring>

#include "util/clock.h"

namespace rocksmash {

namespace {
thread_local PerfContext tls_perf_context;
thread_local PerfLevel tls_perf_level = PerfLevel::kDisable;

void AppendField(std::string* out, const char* name, uint64_t v) {
  if (v == 0) return;
  if (!out->empty()) out->append(", ");
  out->append(name);
  out->append(" = ");
  out->append(std::to_string(v));
}
}  // namespace

void SetPerfLevel(PerfLevel level) { tls_perf_level = level; }
PerfLevel GetPerfLevel() { return tls_perf_level; }
PerfContext* GetPerfContext() { return &tls_perf_context; }

void PerfContext::Reset() { *this = PerfContext(); }

std::string PerfContext::ToString() const {
  std::string out;
  AppendField(&out, "get_count", get_count);
  AppendField(&out, "get_from_memtable_count", get_from_memtable_count);
  AppendField(&out, "iter_seek_count", iter_seek_count);
  AppendField(&out, "iter_next_count", iter_next_count);
  AppendField(&out, "iter_fast_path_count", iter_fast_path_count);
  AppendField(&out, "scan_runs_skipped_count", scan_runs_skipped_count);
  AppendField(&out, "scan_prefetch_hit_count", scan_prefetch_hit_count);
  AppendField(&out, "block_cache_hit_count", block_cache_hit_count);
  AppendField(&out, "block_read_count", block_read_count);
  AppendField(&out, "bloom_useful_count", bloom_useful_count);
  AppendField(&out, "persistent_cache_hit_count", persistent_cache_hit_count);
  AppendField(&out, "persistent_cache_miss_count",
              persistent_cache_miss_count);
  AppendField(&out, "cloud_read_count", cloud_read_count);
  AppendField(&out, "cloud_read_bytes", cloud_read_bytes);
  AppendField(&out, "readahead_hit_count", readahead_hit_count);
  AppendField(&out, "multiget_count", multiget_count);
  AppendField(&out, "multiget_key_count", multiget_key_count);
  AppendField(&out, "write_groups_led", write_groups_led);
  AppendField(&out, "write_group_size", write_group_size);
  AppendField(&out, "get_from_memtable_time", get_from_memtable_time);
  AppendField(&out, "get_from_sst_time", get_from_sst_time);
  AppendField(&out, "multiget_time", multiget_time);
  AppendField(&out, "cloud_read_time", cloud_read_time);
  AppendField(&out, "cloud_fetch_wait_time", cloud_fetch_wait_time);
  AppendField(&out, "wal_write_time", wal_write_time);
  AppendField(&out, "write_memtable_time", write_memtable_time);
  AppendField(&out, "wal_sync_time", wal_sync_time);
  AppendField(&out, "write_queue_wait_time", write_queue_wait_time);
  AppendField(&out, "write_stall_time", write_stall_time);
  return out;
}

PerfScope::PerfScope(uint64_t PerfContext::*field)
    : field_(field), start_micros_(0) {
  if (tls_perf_level >= PerfLevel::kEnableTime) {
    start_micros_ = SystemClock::Default()->NowMicros();
    if (start_micros_ == 0) start_micros_ = 1;  // Keep 0 as "disarmed".
  }
}

PerfScope::~PerfScope() {
  if (start_micros_ != 0) {
    tls_perf_context.*field_ +=
        SystemClock::Default()->NowMicros() - start_micros_;
  }
}

}  // namespace rocksmash
