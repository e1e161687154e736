// RocksDB-style thread-local per-operation tracing. Each thread owns one
// PerfContext; instrumented code bumps counters/timers into it when the
// thread's PerfLevel allows. Intended use:
//
//   SetPerfLevel(PerfLevel::kEnableTime);
//   GetPerfContext()->Reset();
//   db->Get(...);
//   log(GetPerfContext()->ToString());
//
// With the default PerfLevel::kDisable the instrumentation is a thread-local
// load plus a predicted branch — no clock readings, no atomic traffic.
#pragma once

#include <cstdint>
#include <string>

namespace rocksmash {

enum class PerfLevel : int {
  kDisable = 0,      // No per-op accounting at all.
  kEnableCount = 1,  // Counters only (no timers).
  kEnableTime = 2,   // Counters and wall-clock timers.
};

// Per-thread; applies to all DBs the thread touches.
void SetPerfLevel(PerfLevel level);
PerfLevel GetPerfLevel();

struct PerfContext {
  // Counters (PerfLevel >= kEnableCount).
  uint64_t get_count = 0;
  uint64_t get_from_memtable_count = 0;  // Gets answered by mem_/imm_.
  uint64_t iter_seek_count = 0;
  uint64_t iter_next_count = 0;
  // Merge advances that resolved with one comparison against the cached
  // runner-up instead of a loser-tree replay.
  uint64_t iter_fast_path_count = 0;
  // Tables skipped outright by a prefix-constrained Seek (filter excluded
  // the prefix).
  uint64_t scan_runs_skipped_count = 0;
  // Block reads served from the bytes of a cloud fetch planned for another
  // block: a scan's read-ahead window, or a pending GET the read joined.
  uint64_t scan_prefetch_hit_count = 0;
  uint64_t block_cache_hit_count = 0;
  uint64_t block_read_count = 0;  // RAM block-cache misses (any tier).
  uint64_t bloom_useful_count = 0;
  uint64_t persistent_cache_hit_count = 0;
  uint64_t persistent_cache_miss_count = 0;
  uint64_t cloud_read_count = 0;
  uint64_t cloud_read_bytes = 0;
  // Block reads that joined a GET another reader had in flight instead of
  // issuing their own.
  uint64_t readahead_hit_count = 0;
  uint64_t multiget_count = 0;       // Batches issued by this thread.
  uint64_t multiget_key_count = 0;   // Keys across those batches.
  uint64_t write_groups_led = 0;     // Write groups this thread led.
  uint64_t write_group_size = 0;     // Writers batched into those groups.

  // Timers, in micros (PerfLevel >= kEnableTime).
  uint64_t get_from_memtable_time = 0;
  uint64_t get_from_sst_time = 0;
  uint64_t multiget_time = 0;  // Whole-batch wall time in DBImpl::MultiGet.
  uint64_t cloud_read_time = 0;
  // Blocked on a cloud fetch still in flight (read-ahead or a joined GET).
  uint64_t cloud_fetch_wait_time = 0;
  uint64_t wal_write_time = 0;
  uint64_t write_memtable_time = 0;
  uint64_t wal_sync_time = 0;
  uint64_t write_queue_wait_time = 0;  // Parked in the writer queue.
  uint64_t write_stall_time = 0;       // Stalled in MakeRoomForWrite.

  void Reset();
  // Non-zero fields only, "name = value, ..." (empty string if all zero).
  std::string ToString() const;
};

// The calling thread's context; never null.
PerfContext* GetPerfContext();

// Bump a counter field on the calling thread's context, gated on PerfLevel.
inline void PerfCount(uint64_t PerfContext::*field, uint64_t count = 1) {
  if (GetPerfLevel() >= PerfLevel::kEnableCount) {
    GetPerfContext()->*field += count;
  }
}

// RAII timer adding elapsed micros to one PerfContext timer field. Only arms
// (and only reads the clock) when the thread is at kEnableTime.
class PerfScope {
 public:
  explicit PerfScope(uint64_t PerfContext::*field);
  ~PerfScope();

  PerfScope(const PerfScope&) = delete;
  PerfScope& operator=(const PerfScope&) = delete;

 private:
  uint64_t PerfContext::*const field_;
  uint64_t start_micros_;  // 0 = disarmed.
};

}  // namespace rocksmash
