// DB: the public key-value store interface. One implementation (DBImpl)
// serves RocksMash and every baseline; the tiering/caching/WAL policies are
// injected through DBOptions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/options.h"
#include "lsm/write_batch.h"
#include "table/iterator.h"
#include "util/slice.h"
#include "util/status.h"

namespace rocksmash {

// Abstract handle to a consistent view of the DB.
class Snapshot {
 protected:
  virtual ~Snapshot() = default;
};

// Recovery telemetry for the eWAL experiments (E5).
struct RecoveryStats {
  uint64_t wall_micros = 0;
  uint64_t replay_micros = 0;  // Reading + parsing + memtable insertion
  uint64_t flush_micros = 0;   // Converting recovered memtables to L0 SSTs
  // Critical-path times: per-shard replay / per-table flush measured
  // individually, summed as max-per-log. On a host with >= shard-count
  // cores these equal the wall times; on fewer cores they model the
  // parallel recovery time the striping buys.
  uint64_t replay_critical_micros = 0;
  uint64_t flush_critical_micros = 0;
  uint64_t logs_replayed = 0;
  uint64_t records_replayed = 0;
  uint64_t bytes_replayed = 0;
  int shards_used = 0;
  uint64_t memtables_flushed = 0;
};

class DB {
 public:
  // Opens the database at `name`. Stores a heap-allocated DB in *dbptr.
  static Status Open(const DBOptions& options, const std::string& name,
                     std::unique_ptr<DB>* dbptr);

  DB() = default;
  virtual ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  virtual Status Put(const WriteOptions& options, const Slice& key,
                     const Slice& value);
  virtual Status Delete(const WriteOptions& options, const Slice& key);
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  // Zero-copy point lookup: OK with *value on hit; NotFound if the key is
  // absent or deleted. Values separated into blob files (see
  // BlobOptions::enable) arrive as the fetched buffer moved into *value —
  // no memcpy on the large-value path. The slice stays valid until the
  // PinnableSlice is reset, reused, or destroyed; it does NOT pin DB state.
  virtual Status Get(const ReadOptions& options, const Slice& key,
                     PinnableSlice* value) = 0;

  // Compatibility overload: copies the pinned result into *value.
  Status Get(const ReadOptions& options, const Slice& key, std::string* value);

  // Batched point lookup. Resizes *values and *statuses to keys.size();
  // entry i carries the result Get(options, keys[i], &(*values)[i]) would
  // have produced, and the whole batch reads from one consistent view (the
  // given snapshot, or a single implicit one). The base implementation loops
  // over Get; DBImpl provides a true batched path that probes the memtables
  // once, pins each table file once, deduplicates block reads within the
  // batch, coalesces blob-file fetches per file, and fans coalesced cloud
  // misses out concurrently (bounded by ReadOptions::max_cloud_fan_out).
  virtual void MultiGet(const ReadOptions& options,
                        const std::vector<Slice>& keys,
                        std::vector<PinnableSlice>* values,
                        std::vector<Status>* statuses);

  // Compatibility overload: copies each pinned result into (*values)[i].
  void MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses);

  // Iterator over the DB contents. The iterator pins DB state: it MUST be
  // destroyed before the DB is.
  virtual std::unique_ptr<Iterator> NewIterator(
      const ReadOptions& options) = 0;

  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // Introspection. Supported properties:
  //   "rocksmash.num-files-at-level<N>"
  //   "rocksmash.stats"
  //   "rocksmash.sstables"
  //   "rocksmash.placement"   (per-level local/cloud file split)
  //   "rocksmash.approximate-memory-usage"
  virtual bool GetProperty(const Slice& property, std::string* value) = 0;

  // Structured introspection: map-valued variant for properties that are a
  // list of name/value rows. Supported:
  //   "rocksmash.stats"      (ticker name -> cumulative count)
  //   "rocksmash.placement"  (per-level local/cloud file + byte split)
  //   "rocksmash.blob"       (blob file count/placement, live/garbage bytes
  //                           and records, cumulative GC counters)
  // Returns false for unsupported properties. The base implementation
  // supports nothing.
  virtual bool GetProperty(const Slice& property,
                           std::map<std::string, std::string>* value);

  // Compact the key range [*begin,*end] (nullptr = unbounded). Returns the
  // first error hit while flushing the memtable or compacting (a sticky
  // background error also surfaces here).
  virtual Status CompactRange(const Slice* begin, const Slice* end) = 0;

  // Graceful shutdown: drains background work, syncs + closes the WAL, and
  // returns the first error encountered (including any sticky background
  // error). Idempotent — later calls return the first outcome. The
  // destructor runs the same shutdown best-effort for callers that skip
  // Close(), but only Close() can report a failed WAL sync, so durability-
  // sensitive callers must use it.
  virtual Status Close() = 0;

  // Force a memtable flush and wait for it.
  virtual Status FlushMemTable() = 0;

  // Block until no background compaction is pending.
  virtual void WaitForCompaction() = 0;

  // Stats of the startup recovery that opened this DB.
  virtual RecoveryStats GetRecoveryStats() const = 0;
};

// Destroy the contents of the specified database (local files only; cloud
// objects are owned by the TableStorage and removed through it while the DB
// is open).
Status DestroyDB(const std::string& name, const DBOptions& options);

}  // namespace rocksmash
