// RocksMashDB: the public API of the paper's system — the LSM engine
// assembled with tiered placement, the LSM-aware persistent cache, the
// packed metadata region, and the eWAL.
//
// Quickstart:
//   auto cloud = NewSimObjectStore("/tmp/bucket", SystemClock::Default());
//   RocksMashOptions opt;
//   opt.local_dir = "/tmp/db";
//   opt.cloud = cloud.get();
//   std::unique_ptr<RocksMashDB> db;
//   RocksMashDB::Open(opt, &db);
//   db->Put(WriteOptions(), "key", "value");
#pragma once

#include <memory>
#include <string>

#include "cloud/cost_meter.h"
#include "cloud/object_store.h"
#include "lsm/db.h"
#include "lsm/shared_resources.h"
#include "mash/persistent_cache.h"
#include "mash/placement.h"

namespace rocksmash {

struct RocksMashOptions {
  // Local storage root: WAL segments, MANIFEST, shallow levels, persistent
  // cache, and metadata region all live under this directory.
  std::string local_dir;

  // Cloud tier (not owned). nullptr degenerates to a local-only store.
  ObjectStore* cloud = nullptr;
  std::string cloud_prefix = "tables";

  // Placement: first level whose SSTs live in the cloud.
  int cloud_level_start = 2;

  // LSM-aware persistent cache budget for cloud data blocks.
  uint64_t persistent_cache_bytes = 64ull * 1024 * 1024;
  CacheLayout cache_layout = CacheLayout::kCompactionAware;

  // eWAL striping factor (1 = classic WAL).
  int wal_segments = 4;

  // Largest coalesced MultiGet range GET; see TieredStorageOptions.
  uint64_t cloud_readahead_bytes = 256 * 1024;

  // Heat-based pinning of hot cloud files to local storage.
  bool pin_hot_files = false;
  uint64_t pin_after_accesses = 64;
  uint64_t pin_budget_bytes = 64ull * 1024 * 1024;

  // Async upload pipeline: cloud-level installs enqueue their PUT on a small
  // upload pool and serve reads from the local staging copy until durable,
  // so flush/compaction never wait on cloud round-trips. Disable to get the
  // synchronous upload-at-install behavior (ablation baseline).
  bool async_uploads = true;
  int upload_threads = 2;

  // Background lanes of the engine (see DBOptions).
  int max_background_flushes = 1;
  int max_background_compactions = 1;

  // > 1: hash-partition the key space over this many independent engine
  // shards (each with its own directory under local_dir, cloud prefix,
  // WAL, memtables, and sequence domain) routed through a ShardedDB, all
  // drawing on ONE SharedResources (block cache, persistent cache, cloud
  // pools, flush/compaction lanes, statistics). The shard count is
  // persisted in a local_dir/SHARDS marker; reopening with a different
  // count fails. See DESIGN.md "Sharding & shared resources".
  int num_shards = 1;

  // Process-wide pools to draw from. Null: created internally when
  // num_shards > 1 (sized from the knobs above), left unused otherwise.
  std::shared_ptr<SharedResources> shared_resources;

  // Two-stage write front-end: overlapped WAL/apply stages with concurrent
  // per-writer memtable inserts (see DBOptions and DESIGN.md "Write
  // pipeline"). Disable both for the classic serial write path.
  bool enable_pipelined_write = true;
  bool allow_concurrent_memtable_write = true;
  size_t max_write_group_bytes = 1 << 20;

  // Engine knobs (see DBOptions for semantics).
  size_t write_buffer_size = 4 * 1024 * 1024;
  uint64_t max_file_size = 2 * 1024 * 1024;
  uint64_t max_bytes_for_level_base = 10 * 1024 * 1024;
  size_t block_size = 4 * 1024;
  size_t block_cache_bytes = 8 * 1024 * 1024;
  int filter_bits_per_key = 10;
  // > 0: install a fixed-prefix extractor of this length, enabling
  // prefix-aware SST filters and ReadOptions::prefix_same_as_start run
  // skipping on scans (see DBOptions::prefix_extractor).
  size_t prefix_length = 0;
  int max_open_files = 1000;
  bool compress_blocks = true;
  Env* env = nullptr;

  // Key-value separation: values >= blob.min_blob_size are flushed into
  // append-only blob files that tier to the cloud like SSTs, shrinking
  // compaction write amplification and upload traffic for large values.
  // See BlobOptions and DESIGN.md "Value separation".
  BlobOptions blob;

  PriceCard price_card;

  // Unified tickers + latency histograms across the engine, the tiered
  // storage, and the persistent cache (see util/metrics.h). Not owned;
  // nullptr (the default) keeps every hot path stat-free.
  Statistics* statistics = nullptr;

  // Event listeners (flush/compaction/upload/eviction/recovery callbacks).
  // Not owned; must outlive the DB. See util/event_listener.h.
  std::vector<EventListener*> listeners;

  // > 0: dump statistics->ToString() to the info log every N seconds.
  uint32_t stats_dump_period_sec = 0;
};

struct RocksMashStats {
  TableStorageStats storage;
  PersistentCacheStats cache;
  Cache::Stats block_cache;
  ObjectStore::OpCounters cloud_ops;
  RecoveryStats recovery;
  CostBreakdown monthly_cost;  // Requires hours_observed via Stats(hours)
};

class RocksMashDB {
 public:
  static Status Open(const RocksMashOptions& options,
                     std::unique_ptr<RocksMashDB>* dbptr);

  ~RocksMashDB();

  RocksMashDB(const RocksMashDB&) = delete;
  RocksMashDB& operator=(const RocksMashDB&) = delete;

  Status Put(const WriteOptions& o, const Slice& key, const Slice& value) {
    return db_->Put(o, key, value);
  }
  Status Delete(const WriteOptions& o, const Slice& key) {
    return db_->Delete(o, key);
  }
  Status Write(const WriteOptions& o, WriteBatch* updates) {
    return db_->Write(o, updates);
  }
  Status Get(const ReadOptions& o, const Slice& key, PinnableSlice* value) {
    return db_->Get(o, key, value);
  }
  Status Get(const ReadOptions& o, const Slice& key, std::string* value) {
    return db_->Get(o, key, value);
  }
  void MultiGet(const ReadOptions& o, const std::vector<Slice>& keys,
                std::vector<PinnableSlice>* values,
                std::vector<Status>* statuses) {
    db_->MultiGet(o, keys, values, statuses);
  }
  void MultiGet(const ReadOptions& o, const std::vector<Slice>& keys,
                std::vector<std::string>* values,
                std::vector<Status>* statuses) {
    db_->MultiGet(o, keys, values, statuses);
  }
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& o) {
    return db_->NewIterator(o);
  }
  const Snapshot* GetSnapshot() { return db_->GetSnapshot(); }
  void ReleaseSnapshot(const Snapshot* s) { db_->ReleaseSnapshot(s); }
  Status FlushMemTable() { return db_->FlushMemTable(); }
  void WaitForCompaction() { db_->WaitForCompaction(); }
  Status CompactRange(const Slice* begin, const Slice* end) {
    return db_->CompactRange(begin, end);
  }
  Status Close() { return db_->Close(); }
  bool GetProperty(const Slice& property, std::string* value) {
    return db_->GetProperty(property, value);
  }
  bool GetProperty(const Slice& property,
                   std::map<std::string, std::string>* value) {
    return db_->GetProperty(property, value);
  }

  // Aggregate operational stats; hours_observed scales request costs to a
  // monthly figure.
  RocksMashStats Stats(double hours_observed = 1.0) const;

  // Disaster recovery: capture a consistent snapshot of the store in the
  // bucket. Flushes the memtable, then uploads the manifest state and every
  // local-tier SST under `backup_prefix` (cloud-tier SSTs are already in
  // the bucket and are shared, not copied). After BackupToCloud returns OK,
  // the store is fully reconstructible from the bucket alone.
  Status BackupToCloud(const std::string& backup_prefix = "backup");

  // Rebuilds a store from a bucket snapshot into options.local_dir (which
  // must be empty/absent), then opens it.
  //
  // The snapshot is zero-copy with respect to cloud-tier SSTs: the restored
  // store references the same objects under options.cloud_prefix. Run the
  // original OR the restore against a given bucket prefix, never both —
  // either side's compaction deletes objects the other still references.
  static Status RestoreFromCloud(const RocksMashOptions& options,
                                 const std::string& backup_prefix,
                                 std::unique_ptr<RocksMashDB>* dbptr);

  // Block until every shard's enqueued upload job reaches a terminal state
  // (see TieredTableStorage::WaitForPendingUploads).
  void WaitForPendingUploads() {
    for (auto& storage : storages_) storage->WaitForPendingUploads();
  }

  DB* raw_db() { return db_.get(); }
  PersistentCache* persistent_cache() { return pcache_.get(); }
  // Shard 0's storage (the only one when num_shards == 1).
  TieredTableStorage* storage() { return storages_[0].get(); }
  TieredTableStorage* shard_storage(size_t i) { return storages_[i].get(); }
  size_t num_storage_shards() const { return storages_.size(); }

 private:
  RocksMashDB() = default;

  RocksMashOptions options_;
  // Destruction runs bottom-up (db_ first; see ~RocksMashDB): the engine
  // uses storages/WALs, the storages use the pcache, and everything may
  // hold the shared pools, so shared_resources_ is declared first.
  std::shared_ptr<SharedResources> shared_resources_;
  std::unique_ptr<PersistentCache> pcache_;
  // One per shard (a single entry when num_shards == 1).
  std::vector<std::unique_ptr<TieredTableStorage>> storages_;
  std::vector<std::unique_ptr<WalManager>> wals_;
  // Owned in the unsharded path; in the sharded path the shards use the
  // SharedResources cache and owned_block_cache_ stays null.
  std::unique_ptr<Cache> owned_block_cache_;
  Cache* block_cache_ = nullptr;
  std::unique_ptr<DB> db_;
};

}  // namespace rocksmash
