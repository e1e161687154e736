// Tests for the baseline schemes behind the common KVStore interface.
#include "baselines/kvstore.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <thread>
#include <tuple>
#include <vector>

#include "env/env.h"
#include "util/clock.h"

namespace rocksmash {
namespace {

// Every scheme at one and two shards, all through OpenKVStore.
class SchemeTest
    : public ::testing::TestWithParam<std::tuple<SchemeKind, int>> {
 protected:
  SchemeKind kind() const { return std::get<0>(GetParam()); }
  int num_shards() const { return std::get<1>(GetParam()); }

  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rocksmash_scheme_" +
           std::string(SchemeName(kind())) + "_" +
           std::to_string(num_shards());
    std::filesystem::remove_all(dir_);

    CloudLatencyModel model;
    model.jitter_micros = 0;
    // Keep modeled latencies tiny so tests stay fast but the code path is
    // identical to the benches.
    model.get_first_byte_micros = 10;
    model.put_first_byte_micros = 10;
    cloud_ = NewMemObjectStore(&clock_, model);

    options_.kind = kind();
    options_.local_dir = dir_;
    options_.cloud = kind() == SchemeKind::kLocalOnly ? nullptr : cloud_.get();
    options_.write_buffer_size = 64 * 1024;
    options_.max_file_size = 64 * 1024;
    options_.local_cache_bytes = 1 << 20;
    options_.cloud_level_start = 1;
    options_.num_shards = num_shards();
    ASSERT_TRUE(OpenKVStore(options_, &store_).ok());
  }

  void TearDown() override {
    store_.reset();
    std::filesystem::remove_all(dir_);
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<ObjectStore> cloud_;
  SchemeOptions options_;
  std::unique_ptr<KVStore> store_;
};

TEST_P(SchemeTest, PutGetDelete) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  std::string value;
  ASSERT_TRUE(store_->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
  ASSERT_TRUE(store_->Delete(WriteOptions(), "k").ok());
  EXPECT_TRUE(store_->Get(ReadOptions(), "k", &value).IsNotFound());
}

TEST_P(SchemeTest, SurvivesFlushAndCompaction) {
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(store_
                    ->Put(WriteOptions(), "key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  store_->WaitForCompaction();
  std::string value;
  for (int i = 0; i < 4000; i += 97) {
    ASSERT_TRUE(
        store_->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("value" + std::to_string(i), value);
  }
}

TEST_P(SchemeTest, IteratorScan) {
  for (int i = 0; i < 1000; i++) {
    char buf[32];
    snprintf(buf, sizeof(buf), "key%06d", i);
    ASSERT_TRUE(store_->Put(WriteOptions(), buf, "v").ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  std::unique_ptr<Iterator> it(store_->NewIterator(ReadOptions()));
  it->Seek("key000500");
  int n = 0;
  while (it->Valid() && n < 100) {
    it->Next();
    n++;
  }
  EXPECT_EQ(100, n);
  EXPECT_TRUE(it->status().ok());
}

TEST_P(SchemeTest, StatsReportStorageTier) {
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(store_
                    ->Put(WriteOptions(), "key" + std::to_string(i),
                          std::string(100, 'v'))
                    .ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  store_->WaitForCompaction();
  auto stats = store_->Stats();
  if (kind() == SchemeKind::kLocalOnly) {
    EXPECT_GT(stats.storage.local_files, 0u);
    EXPECT_EQ(0u, stats.storage.cloud_files);
  } else {
    EXPECT_GT(stats.storage.cloud_files, 0u);
    EXPECT_GT(stats.cloud_ops.puts, 0u);
  }
  EXPECT_STREQ(SchemeName(kind()), store_->Name());
}

TEST_P(SchemeTest, ReopenKeepsDataAndShardCount) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(store_
                    ->Put(WriteOptions(), "key" + std::to_string(i),
                          "value" + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(store_->FlushMemTable().ok());
  // A tail that only the WAL holds.
  ASSERT_TRUE(store_->Put(WriteOptions(), "tail", "t").ok());
  store_.reset();

  ASSERT_TRUE(OpenKVStore(options_, &store_).ok());
  std::string value;
  for (int i = 0; i < 2000; i += 67) {
    ASSERT_TRUE(
        store_->Get(ReadOptions(), "key" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("value" + std::to_string(i), value);
  }
  ASSERT_TRUE(store_->Get(ReadOptions(), "tail", &value).ok());
  EXPECT_EQ("t", value);
  store_.reset();

  // The routing hash depends on the shard count: any other count would
  // strand keys, so it is refused and the data stays reachable.
  SchemeOptions other = options_;
  other.num_shards = num_shards() == 1 ? 2 : 1;
  Status s = OpenKVStore(other, &store_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(nullptr, store_.get());
  ASSERT_TRUE(OpenKVStore(options_, &store_).ok());
  ASSERT_TRUE(store_->Get(ReadOptions(), "key0", &value).ok());
}

// Backup and restore belong to unsharded kRocksMash stores alone.
TEST_P(SchemeTest, BackupAndRestoreNeedUnshardedRocksMash) {
  ASSERT_TRUE(store_->Put(WriteOptions(), "k", "v").ok());
  const bool supported =
      kind() == SchemeKind::kRocksMash && num_shards() == 1;
  Status s = store_->BackupToCloud("backup");
  EXPECT_EQ(supported, s.ok()) << s.ToString();
  EXPECT_EQ(!supported, s.IsNotSupported()) << s.ToString();

  SchemeOptions restore = options_;
  restore.local_dir = dir_ + "_restore";
  std::filesystem::remove_all(restore.local_dir);
  std::unique_ptr<KVStore> restored;
  s = RestoreKVStoreFromCloud(restore, "backup", &restored);
  EXPECT_EQ(!supported, s.IsNotSupported()) << s.ToString();
  if (supported) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    std::string value;
    ASSERT_TRUE(restored->Get(ReadOptions(), "k", &value).ok());
    EXPECT_EQ("v", value);
    restored.reset();
  } else {
    EXPECT_FALSE(std::filesystem::exists(restore.local_dir));
  }
  std::filesystem::remove_all(restore.local_dir);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SchemeTest,
    ::testing::Combine(::testing::Values(SchemeKind::kLocalOnly,
                                         SchemeKind::kCloudOnly,
                                         SchemeKind::kCloudSstCache,
                                         SchemeKind::kRocksMash),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<SchemeKind, int>>&
           param_info) {
      return std::string(SchemeName(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "Shard";
    });

TEST(CloudSstCacheTest, FileCacheHitsOnRepeatedOpen) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_direct";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kCloudSstCache;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 32 * 1024;
  options.max_file_size = 32 * 1024;
  options.local_cache_bytes = 10 << 20;
  // Tiny table-reader cache effect: read the same keys repeatedly.
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(
        store->Put(WriteOptions(), "key" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();
  std::string value;
  for (int round = 0; round < 3; round++) {
    for (int i = 0; i < 3000; i += 301) {
      ASSERT_TRUE(
          store->Get(ReadOptions(), "key" + std::to_string(i), &value).ok());
    }
  }
  auto stats = store->Stats();
  // Whole files were downloaded at least once; local cache holds bytes.
  EXPECT_GT(stats.storage.downloads, 0u);
  EXPECT_GT(stats.storage.local_bytes, 0u);
  store.reset();
  std::filesystem::remove_all(dir);
}

// Readers that keep missing the whole-file cache race a thread polling
// Stats(): the cache counters are written and read under the storage's lock,
// which the TSan build checks.
TEST(CloudSstCacheTest, StatsPollingRacesFileCacheMisses) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_race";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  SchemeOptions options;
  options.kind = SchemeKind::kCloudSstCache;
  options.local_dir = dir;
  options.cloud = cloud.get();
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.local_cache_bytes = 1 << 20;  // A third of the data below
  options.max_open_files = 2;           // Every read reopens its table
  options.compress_blocks = false;
  std::unique_ptr<KVStore> store;
  ASSERT_TRUE(OpenKVStore(options, &store).ok());
  constexpr int kKeys = 3000;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(store
                    ->Put(WriteOptions(), "key" + std::to_string(i),
                          std::string(1000, static_cast<char>('a' + i % 26)))
                    .ok());
  }
  ASSERT_TRUE(store->FlushMemTable().ok());
  store->WaitForCompaction();

  std::atomic<int> readers_left{3};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; r++) {
    threads.emplace_back([&, r] {
      std::string value;
      for (int i = r; i < kKeys; i += 7) {
        if (!store->Get(ReadOptions(), "key" + std::to_string(i), &value)
                 .ok()) {
          read_errors.fetch_add(1);
        }
      }
      readers_left.fetch_sub(1);
    });
  }
  uint64_t polls = 0;
  while (readers_left.load() > 0) {
    const KVStoreStats stats = store->Stats();
    EXPECT_LE(stats.storage.file_cache_evictions,
              stats.storage.file_cache_misses);
    polls++;
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(0, read_errors.load());
  EXPECT_GT(polls, 0u);
  const KVStoreStats stats = store->Stats();
  EXPECT_GT(stats.storage.file_cache_misses, 0u);
  EXPECT_GT(stats.storage.file_cache_evictions, 0u);
  EXPECT_LE(stats.storage.local_bytes, 2u << 20);
  store.reset();
  std::filesystem::remove_all(dir);
}

// Forwards to another Env; runs a hook once, on entry to the first
// NewRandomAccessFile of one path.
class OpenHookEnv final : public Env {
 public:
  OpenHookEnv(Env* base, std::string path, std::function<void()> hook)
      : base_(base), path_(std::move(path)), hook_(std::move(hook)) {}

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    if (fname == path_ && hook_ != nullptr) {
      std::function<void()> hook = std::move(hook_);
      hook_ = nullptr;
      hook();
    }
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  Env* const base_;
  const std::string path_;
  std::function<void()> hook_;  // the opening thread only
};

// The deterministic form of the race above: between caching table 1 and
// opening its file, a second reader's miss gets every chance to evict it.
// The open must still succeed and read table 1's bytes, on the host
// filesystem and on MemEnv alike (an open handle outlives the unlink).
TEST(CloudSstCacheTest, EvictionCannotDeleteAFileBeingOpened) {
  std::unique_ptr<Env> mem_env = NewMemEnv();
  for (Env* base : {Env::Default(), mem_env.get()}) {
    std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_open";
    std::filesystem::remove_all(dir);
    SimClock clock;
    CloudLatencyModel model;
    model.jitter_micros = 0;
    auto cloud = NewMemObjectStore(&clock, model);

    std::unique_ptr<TableStorage> storage;
    std::future<Status> second_open;
    auto evict_under_open = [&] {
      // Budget 4096 holds one 3000-byte table: opening table 2 evicts
      // table 1. Give that reader time to finish if the storage lets it.
      second_open = std::async(std::launch::async, [&] {
        std::unique_ptr<BlockSource> source;
        uint64_t size = 0;
        return storage->OpenTable(2, &source, &size);
      });
      second_open.wait_for(std::chrono::milliseconds(200));
    };
    OpenHookEnv env(base, dir + "/sstcache/000001.sst", evict_under_open);
    storage = NewCloudSstCacheStorage(&env, dir, cloud.get(), "tables",
                                      /*budget=*/4096);
    for (uint64_t n = 1; n <= 2; n++) {
      std::unique_ptr<WritableFile> f;
      ASSERT_TRUE(storage->NewStagingFile(n, &f).ok());
      ASSERT_TRUE(f->Append(std::string(3000, static_cast<char>('a' + n))).ok());
      ASSERT_TRUE(f->Close().ok());
      ASSERT_TRUE(storage->Install(n, 1, 3000, 0).ok());
    }

    std::unique_ptr<BlockSource> source;
    uint64_t size = 0;
    Status s = storage->OpenTable(1, &source, &size);
    ASSERT_TRUE(second_open.valid());
    ASSERT_TRUE(second_open.get().ok());
    ASSERT_TRUE(s.ok()) << s.ToString();
    // Table 1 was evicted and its file deleted while this reader held it.
    EXPECT_EQ(1u, storage->GetStats().file_cache_evictions);
    EXPECT_FALSE(env.FileExists(dir + "/sstcache/000001.sst"));
    std::string bytes;
    ASSERT_TRUE(source->ReadRaw(0, 3000, &bytes).ok());
    EXPECT_EQ(std::string(3000, 'b'), bytes);
    source.reset();
    storage.reset();
    std::filesystem::remove_all(dir);
  }
}

TEST(CloudSstCacheTest, EvictionBoundsCacheBytes) {
  std::string dir = ::testing::TempDir() + "/rocksmash_sstcache_evict";
  std::filesystem::remove_all(dir);
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  auto storage = NewCloudSstCacheStorage(Env::Default(), dir, cloud.get(),
                                         "tables", /*budget=*/4096);

  // Create three small "tables" via staging + install, then open them all.
  for (uint64_t n = 1; n <= 3; n++) {
    std::unique_ptr<WritableFile> f;
    ASSERT_TRUE(storage->NewStagingFile(n, &f).ok());
    ASSERT_TRUE(f->Append(std::string(3000, 'a' + n)).ok());
    ASSERT_TRUE(f->Close().ok());
    ASSERT_TRUE(storage->Install(n, 1, 3000, 0).ok());
  }
  std::unique_ptr<BlockSource> source;
  uint64_t size;
  for (uint64_t n = 1; n <= 3; n++) {
    ASSERT_TRUE(storage->OpenTable(n, &source, &size).ok());
    EXPECT_EQ(3000u, size);
  }
  // Budget 4096 holds at most one 3000-byte file plus the newest.
  EXPECT_GT(storage->GetStats().file_cache_evictions, 0u);
  EXPECT_LE(storage->GetStats().local_bytes, 2u * 3000u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
