// Tests for the cloud fetch planner: a point read fetches exactly its block,
// a scan streams windows from its first block and issues its first two
// together, every window's blocks land in the persistent cache, and readers
// of a block that a pending GET covers wait for it instead of fetching it
// again.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "cloud/object_store.h"
#include "env/env.h"
#include "mash/persistent_cache.h"
#include "mash/placement.h"
#include "table/table.h"
#include "table/table_builder.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/mutexlock.h"
#include "util/random.h"

namespace rocksmash {
namespace {

struct RangeGet {
  uint64_t offset;
  size_t n;
  // When the GET entered and left the store, on a clock that ticks once per
  // entry or exit: two GETs were pending at once iff each entered before
  // the other left.
  uint64_t entered = 0;
  uint64_t left = 0;
};

bool Overlapped(const RangeGet& a, const RangeGet& b) {
  return a.entered < b.left && b.entered < a.left;
}

// Records every range GET that reaches the wrapped store.
class RecordingStore final : public ObjectStore {
 public:
  explicit RecordingStore(std::unique_ptr<ObjectStore> base)
      : base_(std::move(base)) {}

  Status Put(const std::string& key, const Slice& data) override {
    return base_->Put(key, data);
  }
  Status Get(const std::string& key, std::string* data) override {
    return base_->Get(key, data);
  }
  Status GetRange(const std::string& key, uint64_t offset, size_t n,
                  std::string* data) override {
    size_t i;
    {
      MutexLock l(&mu_);
      i = gets_.size();
      gets_.push_back({offset, n, ++ticks_, 0});
    }
    Status s = base_->GetRange(key, offset, n, data);
    MutexLock l(&mu_);
    gets_[i].left = ++ticks_;
    return s;
  }
  Status Head(const std::string& key, ObjectMeta* meta) override {
    return base_->Head(key, meta);
  }
  Status Delete(const std::string& key) override { return base_->Delete(key); }
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* result) override {
    return base_->List(prefix, result);
  }
  OpCounters Counters() const override { return base_->Counters(); }
  uint64_t BytesStored() const override { return base_->BytesStored(); }

  std::vector<RangeGet> Gets() {
    MutexLock l(&mu_);
    return gets_;
  }
  void Clear() {
    MutexLock l(&mu_);
    gets_.clear();
  }

 private:
  std::unique_ptr<ObjectStore> base_;
  // Lock order: leaf. Guards the GET log; never held across the base call.
  Mutex mu_;
  std::vector<RangeGet> gets_ GUARDED_BY(mu_);
  uint64_t ticks_ GUARDED_BY(mu_) = 0;
};

// `gets` in file order. A scan's GETs run concurrently, so the order they
// reached the store in is not fixed.
std::vector<RangeGet> ByOffset(std::vector<RangeGet> gets) {
  std::sort(gets.begin(), gets.end(), [](const RangeGet& a, const RangeGet& b) {
    return a.offset < b.offset;
  });
  return gets;
}

std::string KeyOf(int i) {
  char key[32];
  snprintf(key, sizeof(key), "key%08d", i);
  return key;
}

void SaveValue(void* arg, const Slice& /*key*/, const Slice& value) {
  reinterpret_cast<std::string*>(arg)->assign(value.data(), value.size());
}

constexpr int kRows = 3000;

class ReadaheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/rocksmash_readahead";
    std::filesystem::remove_all(dir_);
    ASSERT_TRUE(Env::Default()->CreateDirRecursively(dir_).ok());
  }

  void TearDown() override {
    storage_.reset();
    pcache_.reset();
    std::filesystem::remove_all(dir_);
  }

  // A cloud-only tiered storage over a recording store. Install() uploads
  // synchronously and packs every table's metadata into the persistent
  // cache, so opening a table issues no GET: every recorded GET is a data
  // block fetch.
  void OpenStorage(Clock* clock, uint64_t get_first_byte_micros,
                   Statistics* statistics = nullptr) {
    CloudLatencyModel model;
    model.jitter_micros = 0;
    model.get_first_byte_micros = get_first_byte_micros;
    model.put_first_byte_micros = 1;
    cloud_ = std::make_unique<RecordingStore>(NewMemObjectStore(clock, model));
    PersistentCacheOptions pc;
    pc.dir = dir_ + "/pcache";
    pcache_ = std::make_unique<PersistentCache>(pc);
    TieredStorageOptions opts;
    opts.local_dir = dir_ + "/local";
    opts.cloud = cloud_.get();
    opts.cloud_level_start = 0;
    opts.persistent_cache = pcache_.get();
    opts.statistics = statistics;
    storage_ = std::make_unique<TieredTableStorage>(opts);
  }

  // Builds a ~500 KiB SST of incompressible-ish data at a cloud level.
  void BuildCloudTable(uint64_t number) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(storage_->NewStagingFile(number, &file).ok());
    TableOptions topt;
    TableBuilder builder(topt, file.get());
    Random64 rng(4);
    for (int i = 0; i < kRows; i++) {
      std::string value(128, '\0');
      for (char& c : value) c = static_cast<char>(rng.Next());
      builder.Add(KeyOf(i), value);
    }
    ASSERT_TRUE(builder.Finish().ok());
    size_ = builder.FileSize();
    ASSERT_TRUE(file->Close().ok());
    ASSERT_TRUE(
        storage_->Install(number, 3, size_, builder.MetadataOffset()).ok());
    ASSERT_FALSE(storage_->IsLocal(number));
  }

  std::unique_ptr<Table> OpenTable(uint64_t number) {
    std::unique_ptr<BlockSource> source;
    uint64_t got_size = 0;
    EXPECT_TRUE(storage_->OpenTable(number, &source, &got_size).ok());
    std::unique_ptr<Table> table;
    EXPECT_TRUE(Table::Open(TableOptions(), std::move(source), size_, nullptr,
                            1, &table)
                    .ok());
    return table;
  }

  static std::vector<BlockHandle> DataBlocks(const Table& table) {
    std::vector<BlockHandle> handles;
    std::unique_ptr<Iterator> it = table.NewIndexIterator();
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      BlockHandle h;
      Slice input = it->value();
      EXPECT_TRUE(h.DecodeFrom(&input).ok());
      handles.push_back(h);
    }
    return handles;
  }

  static TableIterOptions Streaming() {
    TableIterOptions iopts;
    iopts.scan_readahead_bytes = 1 << 20;
    return iopts;
  }

  SimClock clock_;
  std::string dir_;
  std::unique_ptr<RecordingStore> cloud_;
  std::unique_ptr<PersistentCache> pcache_;
  std::unique_ptr<TieredTableStorage> storage_;
  uint64_t size_ = 0;
};

TEST_F(ReadaheadTest, PointGetFetchesExactlyItsBlock) {
  OpenStorage(&clock_, 1);
  BuildCloudTable(1);
  std::unique_ptr<Table> table = OpenTable(1);
  ASSERT_TRUE(cloud_->Gets().empty());

  const std::string key = KeyOf(1500);
  std::unique_ptr<Iterator> index = table->NewIndexIterator();
  index->Seek(key);
  ASSERT_TRUE(index->Valid());
  BlockHandle handle;
  Slice input = index->value();
  ASSERT_TRUE(handle.DecodeFrom(&input).ok());

  std::string value;
  ASSERT_TRUE(table->InternalGet(key, &value, SaveValue).ok());
  EXPECT_EQ(128u, value.size());
  const std::vector<RangeGet> gets = cloud_->Gets();
  ASSERT_EQ(1u, gets.size());
  EXPECT_EQ(handle.offset(), gets[0].offset);
  EXPECT_EQ(handle.size() + kBlockTrailerSize, gets[0].n);

  // The block is now local: a second Get issues nothing.
  ASSERT_TRUE(table->InternalGet(key, &value, SaveValue).ok());
  EXPECT_EQ(1u, cloud_->Gets().size());
}

TEST_F(ReadaheadTest, FullScanStreamsFromTheFirstBlock) {
  OpenStorage(&clock_, 1);
  BuildCloudTable(1);
  BuildCloudTable(2);

  std::unique_ptr<Table> table = OpenTable(1);
  const std::vector<BlockHandle> blocks = DataBlocks(*table);
  ASSERT_GT(blocks.size(), 80u);  // ~500 KiB of 4 KiB blocks
  std::unique_ptr<Iterator> it = table->NewIterator(Streaming());
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    ASSERT_EQ(KeyOf(n), it->key().ToString());
    ASSERT_EQ(128u, it->value().size());
    n++;
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(kRows, n);
  it.reset();
  table.reset();  // drains any read-ahead still in flight
  const std::vector<RangeGet> gets = ByOffset(cloud_->Gets());
  ASSERT_FALSE(gets.empty());
  EXPECT_LE(gets.size(), 8u);
  EXPECT_EQ(blocks.front().offset(), gets.front().offset);

  // Without a read-ahead budget every block is a point read.
  cloud_->Clear();
  table = OpenTable(2);
  it = table->NewIterator(TableIterOptions());
  n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) n++;
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(kRows, n);
  EXPECT_EQ(blocks.size(), cloud_->Gets().size());
}

TEST_F(ReadaheadTest, WindowBlocksAreServedFromThePersistentCache) {
  OpenStorage(&clock_, 1);
  BuildCloudTable(1);
  std::unique_ptr<Table> table = OpenTable(1);
  const std::vector<BlockHandle> blocks = DataBlocks(*table);
  std::unique_ptr<Iterator> it = table->NewIterator(Streaming());
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  it.reset();
  table.reset();  // drains the read-ahead started behind the first window
  const size_t gets_before = cloud_->Gets().size();
  const RangeGet window = ByOffset(cloud_->Gets()).front();
  EXPECT_EQ(0u, window.offset);

  // A fresh source holds no fetched bytes: whatever it serves without a GET
  // comes from the persistent cache.
  std::unique_ptr<BlockSource> source;
  uint64_t got_size = 0;
  ASSERT_TRUE(storage_->OpenTable(1, &source, &got_size).ok());
  const uint64_t hits_before = pcache_->GetStats().hits;
  uint64_t in_window = 0;
  for (const BlockHandle& h : blocks) {
    if (h.offset() + h.size() + kBlockTrailerSize > window.offset + window.n) {
      break;
    }
    BlockContents contents;
    ASSERT_TRUE(source->ReadBlock(h, BlockKind::kData, &contents).ok());
    in_window++;
  }
  EXPECT_GE(in_window, 2u);
  EXPECT_EQ(hits_before + in_window, pcache_->GetStats().hits);
  EXPECT_EQ(gets_before, cloud_->Gets().size());
}

TEST_F(ReadaheadTest, ConcurrentReadersOfAColdWindowShareOneGet) {
  // Real 50 ms GETs, so all readers arrive while the first GET is pending.
  auto stats = CreateDBStatistics();
  OpenStorage(SystemClock::Default(), 50 * 1000, stats.get());
  BuildCloudTable(1);
  std::unique_ptr<Table> table = OpenTable(1);

  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::atomic<int> correct{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      std::unique_ptr<Iterator> it = table->NewIterator(Streaming());
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      it->SeekToFirst();
      if (it->Valid() && it->key().ToString() == KeyOf(0) &&
          it->value().size() == 128) {
        correct.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  table.reset();
  EXPECT_EQ(kThreads, correct.load());
  // One GET for the first window; the read-ahead behind it is shared too,
  // so no byte is fetched twice.
  const std::vector<RangeGet> gets = ByOffset(cloud_->Gets());
  ASSERT_FALSE(gets.empty());
  EXPECT_EQ(0u, gets[0].offset);
  for (size_t i = 1; i < gets.size(); i++) {
    EXPECT_GE(gets[i].offset, gets[i - 1].offset + gets[i - 1].n);
  }
  // The readers that joined the pending GET waited on it, and that wait is
  // recorded.
  EXPECT_GE(stats->GetHistogramSnapshot(CLOUD_FETCH_WAIT_US).Count(), 1u);
}

TEST_F(ReadaheadTest, ColdScanIssuesItsFirstTwoWindowsTogether) {
  // Real 50 ms GETs, so GETs that overlap are seen in flight together.
  OpenStorage(SystemClock::Default(), 50 * 1000);
  BuildCloudTable(1);
  std::unique_ptr<Table> table = OpenTable(1);
  const std::vector<BlockHandle> blocks = DataBlocks(*table);

  // Read rows until the scan is past the first 16 KiB window and into the
  // second, as a cloud-mixed scan of a few dozen rows does.
  constexpr int kScanRows = 200;
  std::unique_ptr<Iterator> it = table->NewIterator(Streaming());
  int n = 0;
  for (it->SeekToFirst(); it->Valid() && n < kScanRows; it->Next()) {
    ASSERT_EQ(KeyOf(n), it->key().ToString());
    n++;
  }
  ASSERT_TRUE(it->status().ok()) << it->status().ToString();
  ASSERT_EQ(kScanRows, n);
  it.reset();
  table.reset();  // drains the read-ahead still in flight

  // The same GETs as when each window started after the one before it
  // returned: the first window, the second (twice as large), and the third,
  // which the scan starts as it nears the end of the first.
  const std::vector<RangeGet> gets = ByOffset(cloud_->Gets());
  ASSERT_EQ(3u, gets.size());
  EXPECT_EQ(blocks.front().offset(), gets[0].offset);
  EXPECT_LE(gets[0].n, 16u * 1024);
  EXPECT_GT(gets[1].n, gets[0].n);
  EXPECT_LE(gets[1].n, 32u * 1024);
  // The second window's GET was pending while the first ran inline.
  EXPECT_TRUE(Overlapped(gets[0], gets[1]));
  // Contiguous: each window starts where the one before it ends.
  for (size_t i = 1; i < gets.size(); i++) {
    EXPECT_EQ(gets[i - 1].offset + gets[i - 1].n, gets[i].offset);
  }
}

}  // namespace
}  // namespace rocksmash
