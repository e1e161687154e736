#include "baselines/kvstore.h"

#include <algorithm>
#include <list>
#include <map>
#include <mutex>

#include "env/env.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/sharded_db.h"
#include "mash/placement.h"
#include "util/prefix_extractor.h"

namespace rocksmash {

const char* SchemeName(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kLocalOnly:
      return "LocalOnly";
    case SchemeKind::kCloudOnly:
      return "CloudOnly";
    case SchemeKind::kCloudSstCache:
      return "CloudSstCache";
    case SchemeKind::kRocksMash:
      return "RocksMash";
  }
  return "Unknown";
}

namespace {

// rocksdb-cloud-style storage: every SST uploads to the cloud; reads go
// through an LRU cache of *whole SST files* on local disk.
class CloudSstCacheStorage final : public TableStorage {
 public:
  CloudSstCacheStorage(Env* env, std::string local_dir, ObjectStore* cloud,
                       std::string cloud_prefix, uint64_t budget)
      : env_(env),
        local_dir_(std::move(local_dir)),
        cloud_(cloud),
        cloud_prefix_(std::move(cloud_prefix)),
        budget_(budget) {
    // why unchecked: an unusable dir fails the first staging-file create
    // with a better message; the constructor has no error channel.
    env_->CreateDirRecursively(local_dir_).PermitUncheckedError();
    env_->CreateDirRecursively(CacheDir()).PermitUncheckedError();
  }

  Status NewStagingFile(uint64_t number,
                        std::unique_ptr<WritableFile>* file) override {
    return env_->NewWritableFile(TableFileName(local_dir_, number), file);
  }

  Status Install(uint64_t number, int /*level*/, uint64_t file_size,
                 uint64_t /*metadata_offset*/) override {
    std::string contents;
    Status s =
        ReadFileToString(env_, TableFileName(local_dir_, number), &contents);
    if (!s.ok()) return s;
    s = cloud_->Put(CloudTableKey(cloud_prefix_, number), contents);
    if (!s.ok()) return s;
    // why unchecked: the upload landed; the staging copy is dead weight
    // and a leaked file only wastes local disk.
    env_->RemoveFile(TableFileName(local_dir_, number)).PermitUncheckedError();

    MutexLock l(&mu_);
    sizes_[number] = file_size;
    stats_.uploads++;
    return Status::OK();
  }

  Status OpenTable(uint64_t number, std::unique_ptr<BlockSource>* source,
                   uint64_t* file_size) override {
    std::unique_ptr<RandomAccessFile> file;
    Status s = OpenCached(number, file_size, &file);
    if (!s.ok()) return s;
    *source = std::make_unique<OwningSource>(std::move(file));
    return Status::OK();
  }

  Status Remove(uint64_t number) override {
    {
      MutexLock l(&mu_);
      sizes_.erase(number);
      auto it = cached_.find(number);
      if (it != cached_.end()) {
        cache_bytes_ -= it->second;
        cached_.erase(it);
        lru_.remove(number);
        // why unchecked: the cache entry is unindexed; a leaked file only
        // wastes disk until the next restart.
        env_->RemoveFile(CachePath(number)).PermitUncheckedError();
      }
    }
    return cloud_->Delete(CloudTableKey(cloud_prefix_, number));
  }

  bool IsLocal(uint64_t /*number*/) const override { return false; }

  Status ListTables(std::vector<uint64_t>* numbers) override {
    numbers->clear();
    MutexLock l(&mu_);
    for (const auto& [number, size] : sizes_) {
      (void)size;
      numbers->push_back(number);
    }
    return Status::OK();
  }

  TableStorageStats GetStats() const override {
    MutexLock l(&mu_);
    TableStorageStats s = stats_;
    for (const auto& [n, size] : sizes_) {
      (void)n;
      s.cloud_bytes += size;
      s.cloud_files++;
    }
    s.local_bytes = cache_bytes_;
    s.local_files = cached_.size();
    return s;
  }

 private:
  class OwningSource final : public BlockSource {
   public:
    explicit OwningSource(std::unique_ptr<RandomAccessFile> file)
        : file_(std::move(file)), source_(file_.get()) {}
    Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                     BlockContents* result) override {
      return source_.ReadBlock(handle, kind, result);
    }
    Status ReadRaw(uint64_t offset, size_t n, std::string* out) override {
      return source_.ReadRaw(offset, n, out);
    }

   private:
    std::unique_ptr<RandomAccessFile> file_;
    FileBlockSource source_;
  };

  std::string CacheDir() const { return local_dir_ + "/sstcache"; }
  std::string CachePath(uint64_t number) const {
    return TableFileName(CacheDir(), number);
  }

  // Opens the cached copy of `number`, downloading it first on a miss. The
  // file is opened under mu_, so a concurrent miss cannot evict and delete
  // it in between. An open handle outlives the unlink (POSIX; MemEnv keeps
  // the contents alive too), so a reader keeps reading a file evicted under
  // it. local_cache_bytes counts indexed files only: an evicted file still
  // open holds its disk space, uncounted, until its last reader closes it.
  Status OpenCached(uint64_t number, uint64_t* file_size,
                    std::unique_ptr<RandomAccessFile>* file) {
    MutexLock l(&mu_);
    auto it = cached_.find(number);
    if (it != cached_.end()) {
      // Hit: refresh LRU.
      lru_.remove(number);
      lru_.push_back(number);
      *file_size = it->second;
      stats_.file_cache_hits++;
      return env_->NewRandomAccessFile(CachePath(number), file);
    }
    stats_.file_cache_misses++;

    // Miss: download the whole file (the file-granularity cost).
    std::string contents;
    Status s = cloud_->Get(CloudTableKey(cloud_prefix_, number), &contents);
    if (!s.ok()) return s;
    stats_.downloads++;
    s = WriteStringToFile(env_, contents, CachePath(number), /*sync=*/false);
    if (!s.ok()) return s;

    cached_[number] = contents.size();
    cache_bytes_ += contents.size();
    lru_.push_back(number);
    *file_size = contents.size();

    // The newest entry is never the victim: the loop keeps the last one.
    while (cache_bytes_ > budget_ && lru_.size() > 1) {
      uint64_t victim = lru_.front();
      lru_.pop_front();
      auto vit = cached_.find(victim);
      if (vit != cached_.end()) {
        cache_bytes_ -= vit->second;
        cached_.erase(vit);
        // why unchecked: eviction is best-effort; see Remove above.
        env_->RemoveFile(CachePath(victim)).PermitUncheckedError();
        stats_.file_cache_evictions++;
      }
    }
    return env_->NewRandomAccessFile(CachePath(number), file);
  }

  Env* env_;
  std::string local_dir_;
  ObjectStore* cloud_;
  std::string cloud_prefix_;
  uint64_t budget_;

  // Lock order: leaf. Guards the maps, the LRU and the counters; a miss
  // holds it across the whole-file GET and the local write, so concurrent
  // opens of any table wait for that download.
  mutable Mutex mu_;
  std::map<uint64_t, uint64_t> sizes_
      GUARDED_BY(mu_);  // All live tables (cloud), number->size
  std::map<uint64_t, uint64_t> cached_
      GUARDED_BY(mu_);  // Locally cached, number->size
  std::list<uint64_t> lru_ GUARDED_BY(mu_);  // Front = coldest
  uint64_t cache_bytes_ GUARDED_BY(mu_) = 0;
  TableStorageStats stats_ GUARDED_BY(mu_);
};

}  // namespace

std::unique_ptr<TableStorage> NewCloudSstCacheStorage(
    Env* env, const std::string& local_dir, ObjectStore* cloud,
    const std::string& cloud_prefix, uint64_t cache_budget_bytes) {
  return std::make_unique<CloudSstCacheStorage>(env, local_dir, cloud,
                                                cloud_prefix,
                                                cache_budget_bytes);
}

KVStore::KVStore(const SchemeOptions& options) : options_(options) {}

KVStore::~KVStore() = default;

KVStoreStats KVStore::Stats(double hours_observed) const {
  KVStoreStats s;
  for (const auto& storage : storages_) {
    const TableStorageStats one = storage->GetStats();
    s.storage.local_bytes += one.local_bytes;
    s.storage.cloud_bytes += one.cloud_bytes;
    s.storage.local_files += one.local_files;
    s.storage.cloud_files += one.cloud_files;
    s.storage.uploads += one.uploads;
    s.storage.downloads += one.downloads;
    s.storage.pending_uploads += one.pending_uploads;
    s.storage.file_cache_hits += one.file_cache_hits;
    s.storage.file_cache_misses += one.file_cache_misses;
    s.storage.file_cache_evictions += one.file_cache_evictions;
  }
  if (pcache_ != nullptr) {
    s.persistent_cache = pcache_->GetStats();
  }
  s.block_cache = shared_resources_->block_cache()->GetStats();
  uint64_t cloud_bytes = 0;
  if (options_.cloud != nullptr) {
    s.cloud_ops = options_.cloud->Counters();
    cloud_bytes = options_.cloud->BytesStored();
  }
  s.recovery = db_->GetRecoveryStats();
  const uint64_t local_bytes = s.storage.local_bytes +
                               s.persistent_cache.disk_bytes +
                               s.persistent_cache.metadata.bytes;
  s.monthly_cost = CostMeter().MonthlyCost(cloud_bytes, local_bytes,
                                           s.cloud_ops, hours_observed);
  return s;
}

Status KVStore::BackupToCloud(const std::string& backup_prefix) {
  if (options_.kind != SchemeKind::kRocksMash) {
    return Status::NotSupported(std::string("backup of a ") + Name() +
                                " store");
  }
  if (options_.cloud == nullptr) {
    return Status::InvalidArgument("backup requires a cloud tier");
  }
  if (storages_.size() > 1) {
    return Status::NotSupported("backup of a sharded store");
  }
  // A flush makes the WAL redundant for the snapshot: everything live is in
  // SSTs + MANIFEST afterwards.
  Status s = db_->FlushMemTable();
  if (!s.ok()) return s;
  db_->WaitForCompaction();

  Env* env = options_.env != nullptr ? options_.env : Env::Default();
  ObjectStore* cloud = options_.cloud;
  const std::string& dir = options_.local_dir;

  // Upload CURRENT, the manifest it names, and every local-tier SST. The
  // object set under backup_prefix fully describes the snapshot; cloud-tier
  // SSTs are referenced in place under the normal table prefix.
  std::string current;
  s = ReadFileToString(env, CurrentFileName(dir), &current);
  if (!s.ok()) return s;
  s = cloud->Put(backup_prefix + "/CURRENT", current);
  if (!s.ok()) return s;

  std::string manifest_name = current.substr(0, current.find('\n'));
  std::string manifest;
  s = ReadFileToString(env, dir + "/" + manifest_name, &manifest);
  if (!s.ok()) return s;
  s = cloud->Put(backup_prefix + "/" + manifest_name, manifest);
  if (!s.ok()) return s;

  std::vector<std::string> children;
  s = env->GetChildren(dir, &children);
  if (!s.ok()) return s;
  for (const auto& child : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(child, &number, &type) ||
        type != FileType::kTableFile) {
      continue;
    }
    std::string contents;
    s = ReadFileToString(env, dir + "/" + child, &contents);
    if (!s.ok()) return s;
    s = cloud->Put(backup_prefix + "/" + child, contents);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status OpenKVStore(const SchemeOptions& options,
                   std::unique_ptr<KVStore>* store) {
  store->reset();
  if ((options.kind == SchemeKind::kCloudOnly ||
       options.kind == SchemeKind::kCloudSstCache) &&
      options.cloud == nullptr) {
    return Status::InvalidArgument(std::string(SchemeName(options.kind)) +
                                   " requires an object store");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  Status s = env->CreateDirRecursively(options.local_dir);
  if (!s.ok() && !env->FileExists(options.local_dir)) return s;

  const int num_shards = std::max(1, options.num_shards);
  const bool sharded = num_shards > 1;
  // Unsharded stores write no marker, but still refuse one that names
  // another shard count.
  s = ShardedDB::CheckShardMarker(env, options.local_dir, num_shards,
                                  /*create=*/sharded);
  if (!s.ok() && !s.IsNotFound()) return s;

  std::unique_ptr<KVStore> kv(new KVStore(options));
  kv->shared_resources_ = options.shared_resources;
  if (kv->shared_resources_ == nullptr) {
    SharedResourcesOptions sr = SharedResourcesForShards(
        num_shards, options.max_background_flushes,
        options.max_background_compactions, options.upload_threads);
    sr.block_cache_bytes = options.block_cache_bytes;
    sr.statistics = options.statistics;
    s = SharedResources::Create(sr, &kv->shared_resources_);
    if (!s.ok()) return s;
  }

  if (options.kind == SchemeKind::kRocksMash && options.cloud != nullptr) {
    // One persistent cache for every shard: shards namespace their file ids
    // into it via TieredStorageOptions::cache_namespace.
    PersistentCacheOptions pc;
    pc.dir = options.local_dir + "/pcache";
    pc.env = env;
    pc.capacity_bytes = options.local_cache_bytes;
    pc.layout = options.cache_layout;
    pc.statistics = options.statistics;
    pc.listeners = options.listeners;
    kv->pcache_ = std::make_unique<PersistentCache>(pc);
  }

  std::vector<ShardedDB::ShardSpec> specs;
  specs.reserve(static_cast<size_t>(num_shards));
  for (int i = 0; i < num_shards; i++) {
    const std::string shard_dir =
        sharded ? options.local_dir + "/shard-" + std::to_string(i)
                : options.local_dir;
    if (sharded) {
      s = env->CreateDirRecursively(shard_dir);
      if (!s.ok()) return s;
    }

    // Shards allocate file numbers independently, so cloud-backed schemes
    // need per-shard object prefixes to keep the bucket keys disjoint.
    const std::string cloud_prefix =
        sharded ? "tables/shard-" + std::to_string(i) : "tables";

    DBOptions dbo;
    // kCloudOnly and kRocksMash tier their tables through this storage.
    TieredStorageOptions ts;
    ts.local_dir = shard_dir;
    ts.env = env;
    ts.cloud = options.cloud;
    ts.cloud_prefix = cloud_prefix;
    ts.cloud_readahead_bytes = options.cloud_readahead_bytes;
    ts.shared_resources = kv->shared_resources_;
    ts.statistics = options.statistics;
    ts.listeners = options.listeners;

    switch (options.kind) {
      case SchemeKind::kLocalOnly:
        kv->storages_.push_back(NewLocalTableStorage(env, shard_dir));
        break;
      case SchemeKind::kCloudOnly:
        // Everything in the cloud and no persistent cache.
        ts.cloud_level_start = 0;
        kv->storages_.push_back(std::make_unique<TieredTableStorage>(ts));
        break;
      case SchemeKind::kCloudSstCache: {
        // The whole-file cache budget is a store-wide number, split evenly
        // (floored so tiny configs stay usable).
        const uint64_t budget =
            std::max<uint64_t>(options.local_cache_bytes /
                                   static_cast<uint64_t>(num_shards),
                               1024 * 1024);
        kv->storages_.push_back(NewCloudSstCacheStorage(
            env, shard_dir, options.cloud, cloud_prefix, budget));
        break;
      }
      case SchemeKind::kRocksMash:
        // Without a cloud every level stays local.
        ts.cloud_level_start = options.cloud != nullptr
                                   ? options.cloud_level_start
                                   : config::kNumLevels;
        ts.persistent_cache = kv->pcache_.get();
        ts.cache_namespace = static_cast<uint64_t>(i);
        ts.pin_hot_files = options.pin_hot_files;
        ts.async_uploads = options.async_uploads;
        kv->storages_.push_back(std::make_unique<TieredTableStorage>(ts));
        dbo.wal_segments = options.wal_segments;
        break;
    }

    dbo.env = env;
    dbo.table_storage = kv->storages_.back().get();
    dbo.shared_resources = kv->shared_resources_;
    dbo.enable_pipelined_write = options.enable_pipelined_write;
    dbo.allow_concurrent_memtable_write =
        options.allow_concurrent_memtable_write;
    dbo.max_write_group_bytes = options.max_write_group_bytes;
    // The group's total memtable budget stays at the unsharded value: each
    // shard flushes at 1/N (floored so tiny configs stay usable).
    dbo.write_buffer_size =
        sharded ? std::max<size_t>(options.write_buffer_size /
                                       static_cast<size_t>(num_shards),
                                   256 * 1024)
                : options.write_buffer_size;
    dbo.max_file_size = options.max_file_size;
    dbo.max_bytes_for_level_base = options.max_bytes_for_level_base;
    dbo.block_size = options.block_size;
    dbo.filter_bits_per_key = options.filter_bits_per_key;
    if (options.prefix_length > 0) {
      dbo.prefix_extractor = NewFixedPrefixExtractor(options.prefix_length);
    }
    dbo.max_open_files = options.max_open_files;
    dbo.compress_blocks = options.compress_blocks;
    dbo.blob = options.blob;
    dbo.statistics = options.statistics;
    dbo.listeners = options.listeners;
    // One stats-dump thread for the group is plenty.
    dbo.stats_dump_period_sec = i == 0 ? options.stats_dump_period_sec : 0;

    ShardedDB::ShardSpec spec;
    spec.options = dbo;
    spec.path = shard_dir;
    specs.push_back(std::move(spec));
  }

  s = sharded ? ShardedDB::Open(specs, &kv->db_)
              : DB::Open(specs[0].options, options.local_dir, &kv->db_);
  if (!s.ok()) return s;
  *store = std::move(kv);
  return Status::OK();
}

Status RestoreKVStoreFromCloud(const SchemeOptions& options,
                               const std::string& backup_prefix,
                               std::unique_ptr<KVStore>* store) {
  store->reset();
  if (options.kind != SchemeKind::kRocksMash) {
    return Status::NotSupported(std::string("restore of a ") +
                                SchemeName(options.kind) + " store");
  }
  if (options.cloud == nullptr) {
    return Status::InvalidArgument("restore requires a cloud tier");
  }
  if (options.num_shards > 1) {
    return Status::NotSupported("restore of a sharded store");
  }
  Env* env = options.env != nullptr ? options.env : Env::Default();
  ObjectStore* cloud = options.cloud;

  if (env->FileExists(CurrentFileName(options.local_dir))) {
    return Status::InvalidArgument(options.local_dir,
                                   "already contains a store");
  }
  Status s = env->CreateDirRecursively(options.local_dir);
  if (!s.ok() && !env->FileExists(options.local_dir)) return s;

  // Materialize every backup object into the local directory: CURRENT, the
  // manifest, and the local-tier SSTs. The rest of the tree stays in the
  // bucket and is discovered by the tiered storage on open.
  std::vector<ObjectMeta> objects;
  s = cloud->List(backup_prefix + "/", &objects);
  if (!s.ok()) return s;
  if (objects.empty()) {
    return Status::NotFound("no backup under", backup_prefix);
  }
  for (const auto& meta : objects) {
    std::string contents;
    s = cloud->Get(meta.key, &contents);
    if (!s.ok()) return s;
    const std::string base = meta.key.substr(backup_prefix.size() + 1);
    s = WriteStringToFile(env, contents, options.local_dir + "/" + base,
                          /*sync=*/true);
    if (!s.ok()) return s;
  }
  return OpenKVStore(options, store);
}

}  // namespace rocksmash
