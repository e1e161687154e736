// Tests for the two-stage write pipeline (leader-elected WAL stage +
// parallel memtable apply, src/lsm/db_impl.cc). The cases here pin the
// protocol-level guarantees: group formation under concurrent writers,
// result equivalence between the concurrent and serial apply paths, error
// propagation from a failed WAL sync, and all-or-nothing batch visibility
// through snapshots while the parallel apply stage is racing.
//
// Like concurrency_stress_test.cc, this suite is designed to run under
// both ThreadSanitizer and AddressSanitizer (CI runs it under each); the
// functional assertions keep it meaningful without a sanitizer too.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/filename.h"
#include "util/metrics.h"
#include "util/random.h"

namespace rocksmash {
namespace {

std::string TestDir(const char* suffix) {
  return ::testing::TempDir() + "/rocksmash_write_thread_" + suffix;
}

std::string KeyOf(int writer, uint64_t i) {
  char buf[40];
  snprintf(buf, sizeof(buf), "w%02d-key-%08llu", writer,
           static_cast<unsigned long long>(i));
  return buf;
}

// Deterministic value per key so the final state is independent of the
// order in which concurrent writers were sequenced.
std::string ValueOf(int writer, uint64_t i) {
  return "v-" + std::to_string(writer) + "-" + std::to_string(i * 2654435761u);
}

// ---------- Group formation ----------

// Every Write() call joins exactly one group: the cumulative group-size
// ticker must equal the number of Write() calls, and with many concurrent
// sync writers at least some groups must contain more than one writer.
TEST(WriteThreadTest, GroupFormationAccounting) {
  const std::string dbname = TestDir("groups");
  std::filesystem::remove_all(dbname);

  auto stats = CreateDBStatistics();
  DBOptions options;
  options.create_if_missing = true;
  options.enable_pipelined_write = true;
  options.allow_concurrent_memtable_write = true;
  options.statistics = stats.get();

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 8;
  constexpr uint64_t kWritesPerThread = 200;
  std::atomic<uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&db, &errors, w] {
      // Sync writes force every group through the WAL sync stage, which is
      // where followers pile up behind the leader.
      WriteOptions wo;
      wo.sync = true;
      for (uint64_t i = 0; i < kWritesPerThread; i++) {
        if (!db->Put(wo, KeyOf(w, i), ValueOf(w, i)).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(0u, errors.load());

  const uint64_t total_writes = kWriters * kWritesPerThread;
  const uint64_t groups = stats->GetTickerCount(WRITE_GROUPS);
  const uint64_t group_size = stats->GetTickerCount(WRITE_GROUP_SIZE);
  EXPECT_EQ(total_writes, group_size);
  EXPECT_GE(groups, 1u);
  EXPECT_LE(groups, total_writes);
  // With 8 writers issuing sync writes concurrently, serializing every
  // write into its own group would mean grouping never happened at all.
  EXPECT_LT(groups, total_writes);
  EXPECT_GT(stats->GetTickerCount(WRITE_PIPELINED_GROUPS), 0u);

  // Everything is readable afterwards.
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(w, 0), &value).ok());
    EXPECT_EQ(ValueOf(w, 0), value);
  }
}

// ---------- Concurrent vs serial equivalence ----------

// The same multi-writer workload lands the same logical state whether the
// apply stage runs concurrently or serially. Values are a function of the
// key alone, so the comparison is order-independent.
TEST(WriteThreadTest, ConcurrentAndSerialApplyAgree) {
  constexpr int kWriters = 6;
  constexpr uint64_t kKeysPerWriter = 400;
  constexpr int kBatchKeys = 16;

  auto run_workload = [&](const std::string& dbname, bool concurrent) {
    std::filesystem::remove_all(dbname);
    DBOptions options;
    options.create_if_missing = true;
    options.enable_pipelined_write = concurrent;
    options.allow_concurrent_memtable_write = concurrent;
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

    std::vector<std::thread> threads;
    std::atomic<uint64_t> errors{0};
    for (int w = 0; w < kWriters; w++) {
      threads.emplace_back([&db, &errors, w] {
        WriteOptions wo;
        uint64_t i = 0;
        while (i < kKeysPerWriter) {
          WriteBatch batch;
          for (int b = 0; b < kBatchKeys && i < kKeysPerWriter; b++, i++) {
            batch.Put(KeyOf(w, i), ValueOf(w, i));
          }
          if (!db->Write(wo, &batch).ok()) errors.fetch_add(1);
        }
      });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(0u, errors.load());

    // Read back every key and count the total via a full scan.
    std::string value;
    for (int w = 0; w < kWriters; w++) {
      for (uint64_t i = 0; i < kKeysPerWriter; i++) {
        ASSERT_TRUE(db->Get(ReadOptions(), KeyOf(w, i), &value).ok());
        EXPECT_EQ(ValueOf(w, i), value);
      }
    }
    uint64_t scanned = 0;
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    for (it->SeekToFirst(); it->Valid(); it->Next()) scanned++;
    EXPECT_EQ(kWriters * kKeysPerWriter, scanned);
  };

  run_workload(TestDir("eq_concurrent"), /*concurrent=*/true);
  run_workload(TestDir("eq_serial"), /*concurrent=*/false);
}

// ---------- WAL sync failure ----------

// Env over Env::Default() whose WAL files start failing Sync() on command.
// Every other file (MANIFEST, SSTs) keeps syncing normally.
class FailingSyncEnv final : public Env {
 public:
  void SetFailSyncs(bool fail) {
    fail_syncs_.store(fail, std::memory_order_release);
  }

  Status NewSequentialFile(const std::string& f,
                           std::unique_ptr<SequentialFile>* r) override {
    return base_->NewSequentialFile(f, r);
  }
  Status NewRandomAccessFile(const std::string& f,
                             std::unique_ptr<RandomAccessFile>* r) override {
    return base_->NewRandomAccessFile(f, r);
  }
  Status NewWritableFile(const std::string& f,
                         std::unique_ptr<WritableFile>* r) override {
    Status s = base_->NewWritableFile(f, r);
    uint64_t number;
    int segment;
    if (s.ok() &&
        ParseEWalFileName(f.substr(f.rfind('/') + 1), &number, &segment)) {
      *r = std::make_unique<WalFile>(std::move(*r), &fail_syncs_);
    }
    return s;
  }
  bool FileExists(const std::string& f) override {
    return base_->FileExists(f);
  }
  Status GetChildren(const std::string& d,
                     std::vector<std::string>* r) override {
    return base_->GetChildren(d, r);
  }
  Status RemoveFile(const std::string& f) override {
    return base_->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    return base_->CreateDir(d);
  }
  Status RemoveDir(const std::string& d) override {
    return base_->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    return base_->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

 private:
  class WalFile final : public WritableFile {
   public:
    WalFile(std::unique_ptr<WritableFile> base, std::atomic<bool>* fail)
        : base_(std::move(base)), fail_(fail) {}
    Status Append(const Slice& data) override { return base_->Append(data); }
    Status Close() override { return base_->Close(); }
    Status Flush() override { return base_->Flush(); }
    Status Sync() override {
      if (fail_->load(std::memory_order_acquire)) {
        return Status::IOError("injected sync failure");
      }
      return base_->Sync();
    }

   private:
    std::unique_ptr<WritableFile> base_;
    std::atomic<bool>* fail_;
  };

  Env* const base_ = Env::Default();
  std::atomic<bool> fail_syncs_{false};
};

// A failed group sync must poison the DB (bg_error_): the failing write
// reports the error and every later write is refused rather than risking
// a WAL/memtable divergence.
TEST(WriteThreadTest, SyncFailurePoisonsWrites) {
  const std::string dbname = TestDir("sync_fail");
  std::filesystem::remove_all(dbname);

  FailingSyncEnv env;
  ASSERT_TRUE(env.CreateDirRecursively(dbname).ok());

  DBOptions options;
  options.env = &env;
  options.create_if_missing = true;
  options.enable_pipelined_write = true;
  options.allow_concurrent_memtable_write = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "healthy", "before").ok());

  env.SetFailSyncs(true);
  Status s = db->Put(sync_wo, "doomed", "value");
  ASSERT_FALSE(s.ok());

  // The failure is sticky: even non-sync writes are refused afterwards.
  env.SetFailSyncs(false);
  EXPECT_FALSE(db->Put(WriteOptions(), "after", "value").ok());
  EXPECT_FALSE(db->Put(sync_wo, "after-sync", "value").ok());

  // Reads of pre-failure state still work.
  std::string value;
  EXPECT_TRUE(db->Get(ReadOptions(), "healthy", &value).ok());
  EXPECT_EQ("before", value);

  // The sticky error also surfaces through maintenance entry points that
  // used to swallow it: manual compaction reports instead of no-opping.
  EXPECT_FALSE(db->CompactRange(nullptr, nullptr).ok());

  db.reset();
}

// DB::Close must surface a WAL sync failure. Before Close existed the final
// sync ran in the destructor and its status was dropped, so acknowledged
// (unsynced) writes could vanish on a crash-free shutdown with no caller
// ever hearing about it.
TEST(WriteThreadTest, CloseSurfacesWalSyncFailure) {
  const std::string dbname = TestDir("close_sync_fail");
  std::filesystem::remove_all(dbname);

  FailingSyncEnv env;
  ASSERT_TRUE(env.CreateDirRecursively(dbname).ok());

  DBOptions options;
  options.env = &env;
  options.create_if_missing = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  // Unsynced WAL data that the closing sync must make durable.
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());

  env.SetFailSyncs(true);
  Status close_status = db->Close();
  EXPECT_TRUE(close_status.IsIOError()) << close_status.ToString();

  // Idempotent: a repeat call reports the recorded outcome without
  // re-running teardown, and the destructor tolerates a closed DB.
  EXPECT_TRUE(db->Close().IsIOError());
  db.reset();
}

TEST(WriteThreadTest, CloseIsCleanAndIdempotentOnSuccess) {
  const std::string dbname = TestDir("close_clean");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  EXPECT_TRUE(db->Close().ok());
  EXPECT_TRUE(db->Close().ok());
  db.reset();

  // The closed store reopens with the synced write intact.
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), "k", &value).ok());
  EXPECT_EQ("v", value);
}

// ---------- Sequence visibility under concurrent snapshots ----------

// Each writer overwrites its own K-key batch with a per-round value while
// readers take snapshots and read all K keys through them. LastSequence is
// published only after a group's every sub-batch has applied, so a
// snapshot must always see a batch entirely at one round — never a mix.
TEST(WriteThreadTest, SnapshotsNeverSeePartialBatches) {
  const std::string dbname = TestDir("snapshots");
  std::filesystem::remove_all(dbname);

  DBOptions options;
  options.create_if_missing = true;
  options.enable_pipelined_write = true;
  options.allow_concurrent_memtable_write = true;

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());

  constexpr int kWriters = 4;
  constexpr int kBatchKeys = 8;
  constexpr int kRounds = 300;

  auto batch_key = [](int writer, int k) {
    char buf[32];
    snprintf(buf, sizeof(buf), "batch%02d.key%02d", writer, k);
    return std::string(buf);
  };

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> torn_batches{0};
  std::atomic<uint64_t> write_errors{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; w++) {
    threads.emplace_back([&, w] {
      WriteOptions wo;
      for (int r = 1; r <= kRounds; r++) {
        WriteBatch batch;
        const std::string value = "round-" + std::to_string(r);
        for (int k = 0; k < kBatchKeys; k++) {
          batch.Put(batch_key(w, k), value);
        }
        if (!db->Write(wo, &batch).ok()) write_errors.fetch_add(1);
      }
    });
  }
  for (int r = 0; r < 2; r++) {
    threads.emplace_back([&, r] {
      Random64 rng(7331 + static_cast<uint64_t>(r));
      while (!stop.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(rng.Uniform(kWriters));
        const Snapshot* snap = db->GetSnapshot();
        ReadOptions ro;
        ro.snapshot = snap;
        std::string first, value;
        bool mixed = false;
        int found = 0, absent = 0;
        for (int k = 0; k < kBatchKeys; k++) {
          Status s = db->Get(ro, batch_key(w, k), &value);
          if (s.IsNotFound()) {
            absent++;
            continue;
          }
          ASSERT_TRUE(s.ok());
          if (found == 0) {
            first = value;
          } else if (value != first) {
            mixed = true;
          }
          found++;
        }
        // Consistent views: all keys absent (before the first round) or all
        // present at a single round's value.
        if (mixed || (found > 0 && absent > 0)) torn_batches.fetch_add(1);
        db->ReleaseSnapshot(snap);
      }
    });
  }

  for (int w = 0; w < kWriters; w++) threads[w].join();
  stop.store(true, std::memory_order_release);
  for (size_t t = kWriters; t < threads.size(); t++) threads[t].join();

  EXPECT_EQ(0u, write_errors.load());
  EXPECT_EQ(0u, torn_batches.load());

  // Final state: every batch fully at the last round.
  std::string value;
  for (int w = 0; w < kWriters; w++) {
    for (int k = 0; k < kBatchKeys; k++) {
      ASSERT_TRUE(db->Get(ReadOptions(), batch_key(w, k), &value).ok());
      EXPECT_EQ("round-" + std::to_string(kRounds), value);
    }
  }
}

}  // namespace
}  // namespace rocksmash
