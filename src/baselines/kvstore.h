// KVStore: one interface over the four schemes the evaluation compares.
//
//   kLocalOnly     — everything on local storage (performance ceiling,
//                    cost ceiling).
//   kCloudOnly     — every SST in the object store; only the RAM block
//                    cache between reads and the cloud (floor).
//   kCloudSstCache — rocksdb-cloud-style "state of the art": SSTs in the
//                    cloud plus an LRU of *whole SST files* on local disk.
//                    File-granular caching wastes local bytes on cold blocks
//                    of hot files and re-downloads entire files on misses.
//   kRocksMash     — the paper's system: tiered placement + LSM-aware
//                    block-granular persistent cache + packed metadata
//                    region + eWAL.
//
// All four run the same engine, so measured differences are policy, not
// implementation noise.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cloud/cost_meter.h"
#include "cloud/object_store.h"
#include "lsm/db.h"
#include "lsm/shared_resources.h"
#include "lsm/storage.h"
#include "mash/persistent_cache.h"

namespace rocksmash {

enum class SchemeKind {
  kLocalOnly,
  kCloudOnly,
  kCloudSstCache,
  kRocksMash,
};

const char* SchemeName(SchemeKind kind);

struct SchemeOptions {
  SchemeKind kind = SchemeKind::kRocksMash;
  std::string local_dir;
  ObjectStore* cloud = nullptr;  // Required for all but kLocalOnly

  // Local byte budget for the scheme's cache: the persistent cache
  // (kRocksMash) or the whole-file cache (kCloudSstCache).
  uint64_t local_cache_bytes = 64ull * 1024 * 1024;

  // Largest range GET a MultiGet batch coalesces neighbouring block misses
  // into, for cloud-resident tables (kRocksMash and kCloudOnly). Point
  // reads fetch exactly their block; scans size their own windows
  // (ReadOptions::scan_readahead_bytes).
  uint64_t cloud_readahead_bytes = 256 * 1024;

  // kRocksMash knobs.
  int cloud_level_start = 2;
  int wal_segments = 4;
  CacheLayout cache_layout = CacheLayout::kCompactionAware;
  bool pin_hot_files = false;
  // Async upload pipeline (kRocksMash): cloud-level installs enqueue their
  // PUT on the upload pool and serve reads from the local staging copy until
  // it is durable. Disable for the synchronous-upload ablation baseline.
  bool async_uploads = true;
  int upload_threads = 2;

  // Flush and compaction lane threads of the store's SharedResources, all
  // schemes (SharedResourcesForShards raises them for a sharded store).
  int max_background_flushes = 1;
  int max_background_compactions = 1;

  // > 1: hash-partition the key space over this many engine shards behind a
  // ShardedDB router, all schemes. Each shard gets its own directory under
  // local_dir (and cloud prefix for cloud-backed schemes); the block cache,
  // statistics, and background lanes come from ONE SharedResources so the
  // memory and thread budgets do not scale with the shard count. The count
  // persists in a marker under local_dir; reopening with a different count
  // fails. See DESIGN.md "Sharding & shared resources".
  int num_shards = 1;

  // Process-wide pools: block cache, flush/compaction lanes, upload and
  // cloud-fetch pools. Null: the store creates its own, sized from the knobs
  // here and num_shards. Pass one instance to several stores to share their
  // block cache and background pools.
  std::shared_ptr<SharedResources> shared_resources;

  // Two-stage write front-end, all schemes (see DBOptions and DESIGN.md
  // "Write pipeline"). Disable both for the classic serial write path.
  bool enable_pipelined_write = true;
  bool allow_concurrent_memtable_write = true;
  size_t max_write_group_bytes = 1 << 20;

  // Engine knobs shared by all schemes.
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
  // Key-value separation: values >= blob.min_blob_size move into append-only
  // blob files at flush time and tier to the cloud like SSTs (see
  // BlobOptions / DESIGN.md "Value separation"). Applies to every scheme.
  BlobOptions blob;

  // Table readers kept open. Matters for fairness of the CloudSstCache
  // baseline: an open reader pins its cached file (open fd) even after the
  // file cache evicts it, so an unbounded table cache would silently grant
  // that scheme unlimited local space.
  int max_open_files = 100;
  bool compress_blocks = true;
  Env* env = nullptr;

  // Unified tickers + histograms, propagated to the engine, the tiered
  // storage, and the persistent cache for every scheme. Not owned; nullptr
  // (the default) keeps the hot paths stat-free.
  Statistics* statistics = nullptr;

  // Event listeners (flush/compaction/upload/eviction/recovery). Not owned;
  // must outlive the store.
  std::vector<EventListener*> listeners;

  // > 0: dump statistics to the info log every N seconds.
  uint32_t stats_dump_period_sec = 0;
};

struct KVStoreStats {
  TableStorageStats storage;  // Summed over the shards
  ObjectStore::OpCounters cloud_ops;
  Cache::Stats block_cache;
  PersistentCacheStats persistent_cache;  // kRocksMash only
  RecoveryStats recovery;
  // Priced with the default PriceCard; request counts are scaled to a
  // month from the hours_observed passed to Stats().
  CostBreakdown monthly_cost;
};

// One store: a scheme's per-shard table storages (plus, for kRocksMash, the
// persistent cache) under one engine DB, all drawing on one
// SharedResources. The whole data path -- including the batched MultiGet
// and the unique_ptr iterator API -- is forwarded to the DB, so every scheme
// exposes exactly the DB interface.
class KVStore {
 public:
  ~KVStore();

  KVStore(const KVStore&) = delete;
  KVStore& operator=(const KVStore&) = delete;

  // The engine underneath the scheme (owned by the store, never null).
  DB* db() const { return db_.get(); }

  const char* Name() const { return SchemeName(options_.kind); }

  // Storage, cache, cloud and recovery counters; hours_observed scales the
  // cloud request counts to monthly_cost.
  KVStoreStats Stats(double hours_observed = 1.0) const;

  // The Statistics object this store was opened with (nullptr if none).
  Statistics* statistics() const { return options_.statistics; }

  // Disaster recovery (kRocksMash with a cloud, unsharded): flushes the
  // memtable, then uploads CURRENT, the manifest and every local-tier SST
  // under `backup_prefix`. Cloud-tier SSTs are already in the bucket and are
  // shared, not copied. After an OK return the store can be rebuilt from the
  // bucket alone with RestoreKVStoreFromCloud.
  Status BackupToCloud(const std::string& backup_prefix = "backup");

  // DB-shaped core, forwarded to db().
  Status Put(const WriteOptions& o, const Slice& key, const Slice& value) {
    return db_->Put(o, key, value);
  }
  Status Delete(const WriteOptions& o, const Slice& key) {
    return db_->Delete(o, key);
  }
  Status Write(const WriteOptions& o, WriteBatch* batch) {
    return db_->Write(o, batch);
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
  Status FlushMemTable() { return db_->FlushMemTable(); }
  void WaitForCompaction() { db_->WaitForCompaction(); }

  // Engine introspection ("rocksmash.stats", "rocksmash.prometheus",
  // "rocksmash.ticker.<name>", ...), string- and map-valued.
  bool GetProperty(const Slice& property, std::string* value) {
    return db_->GetProperty(property, value);
  }
  bool GetProperty(const Slice& property,
                   std::map<std::string, std::string>* value) {
    return db_->GetProperty(property, value);
  }

 private:
  friend Status OpenKVStore(const SchemeOptions& options,
                            std::unique_ptr<KVStore>* store);

  explicit KVStore(const SchemeOptions& options);

  SchemeOptions options_;
  // Members are destroyed in reverse order: the engine first (it uses the
  // storages), then the storages, then the persistent cache the storages
  // read through, and the shared pools last, because everything above may
  // schedule on them.
  std::shared_ptr<SharedResources> shared_resources_;
  std::unique_ptr<PersistentCache> pcache_;  // kRocksMash with a cloud
  std::vector<std::unique_ptr<TableStorage>> storages_;  // One per shard
  std::unique_ptr<DB> db_;
};

// The one way to build a store, for every scheme and shard count.
Status OpenKVStore(const SchemeOptions& options,
                   std::unique_ptr<KVStore>* store);

// Rebuilds a kRocksMash store from a BackupToCloud snapshot into
// options.local_dir, which must not hold a store yet, then opens it.
// Requires a cloud; sharded stores and other schemes are NotSupported.
//
// The snapshot is zero-copy with respect to cloud-tier SSTs: the restored
// store references the same objects under the "tables" prefix. Run the
// original OR the restore against a given bucket, never both -- either
// side's compaction deletes objects the other still references.
Status RestoreKVStoreFromCloud(const SchemeOptions& options,
                               const std::string& backup_prefix,
                               std::unique_ptr<KVStore>* store);

// The rocksdb-cloud-style whole-SST-file cache storage, exposed for direct
// testing. Its cache counters are reported by GetStats().
std::unique_ptr<TableStorage> NewCloudSstCacheStorage(
    Env* env, const std::string& local_dir, ObjectStore* cloud,
    const std::string& cloud_prefix, uint64_t cache_budget_bytes);

}  // namespace rocksmash
