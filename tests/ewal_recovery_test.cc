// Tests for the eWAL and crash-recovery behaviour (paper claim: fast
// parallel data recovery with no loss of acked writes).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>

#include "env/env.h"
#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "lsm/filename.h"
#include "lsm/log_writer.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "mash/recovery.h"
#include "util/mutexlock.h"

namespace rocksmash {
namespace {

class EWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    wal_ = std::make_unique<Wal>(env_.get(), "/db", /*segments=*/4);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Wal> wal_;
};

TEST_F(EWalTest, StripesAcrossSegmentFiles) {
  ASSERT_TRUE(wal_->NewLog(1).ok());
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(wal_->AddRecord("record" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(wal_->Sync().ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  // All four segment files must exist and be non-trivial.
  for (int k = 0; k < 4; k++) {
    EXPECT_TRUE(env_->FileExists(EWalFileName("/db", 1, k))) << k;
  }
}

TEST_F(EWalTest, ReplayReturnsAllRecordsWithShardIds) {
  ASSERT_TRUE(wal_->NewLog(2).ok());
  std::set<std::string> written;
  for (int i = 0; i < 100; i++) {
    std::string r = "record" + std::to_string(i);
    written.insert(r);
    ASSERT_TRUE(wal_->AddRecord(r).ok());
  }
  ASSERT_TRUE(wal_->Sync().ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  rocksmash::Mutex mu;
  std::set<std::string> replayed;
  std::set<int> shards;
  ASSERT_TRUE(wal_
                  ->Replay(2,
                           [&](const Slice& record, int shard) {
                             rocksmash::MutexLock l(&mu);
                             replayed.insert(record.ToString());
                             shards.insert(shard);
                             return Status::OK();
                           })
                  .ok());
  EXPECT_EQ(written, replayed);
  EXPECT_EQ(4u, shards.size());  // All shards participated.
}

TEST_F(EWalTest, ListLogsDeduplicatesSegments) {
  ASSERT_TRUE(wal_->NewLog(3).ok());
  ASSERT_TRUE(wal_->AddRecord("a").ok());
  ASSERT_TRUE(wal_->NewLog(9).ok());
  ASSERT_TRUE(wal_->AddRecord("b").ok());
  ASSERT_TRUE(wal_->CloseLog().ok());

  std::vector<uint64_t> logs;
  ASSERT_TRUE(wal_->ListLogs(&logs).ok());
  ASSERT_EQ(2u, logs.size());
  EXPECT_EQ(3u, logs[0]);
  EXPECT_EQ(9u, logs[1]);
}

TEST_F(EWalTest, CorruptSegmentTruncatesOnlyThatShard) {
  ASSERT_TRUE(wal_->NewLog(5).ok());
  for (int i = 0; i < 40; i++) {
    ASSERT_TRUE(wal_->AddRecord("record" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(wal_->CloseLog().ok());

  // Corrupt segment 0 near its start.
  std::string seg0 = EWalFileName("/db", 5, 0);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), seg0, &contents).ok());
  contents[8] ^= 0x01;
  ASSERT_TRUE(WriteStringToFile(env_.get(), contents, seg0).ok());

  rocksmash::Mutex mu;
  int replayed = 0;
  std::set<int> shards;
  ASSERT_TRUE(wal_
                  ->Replay(5,
                           [&](const Slice&, int shard) {
                             rocksmash::MutexLock l(&mu);
                             replayed++;
                             shards.insert(shard);
                             return Status::OK();
                           })
                  .ok());
  // Segments 1-3 fully replayed (30 records); segment 0 truncated at the
  // corruption.
  EXPECT_GE(replayed, 30);
  EXPECT_LT(replayed, 40);
  EXPECT_TRUE(shards.count(1) && shards.count(2) && shards.count(3));
}

// ---------- Crash recovery through the engine ----------

class RecoveryParam : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    segments_ = GetParam();
    dbname_ = ::testing::TempDir() + "/rocksmash_recovery_" +
              std::to_string(segments_);
    std::filesystem::remove_all(dbname_);
    ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname_).ok());
    options_.wal_segments = segments_;
    options_.write_buffer_size = 32 * 1024 * 1024;  // Avoid flushes.
  }

  void TearDown() override { std::filesystem::remove_all(dbname_); }

  int segments_ = 1;
  std::string dbname_;
  DBOptions options_;
};

TEST_P(RecoveryParam, CrashLosesNothingAcked) {
  CrashWorkloadOptions crash;
  crash.wal_bytes = 2 * 1024 * 1024;
  uint64_t keys = 0;
  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    ASSERT_TRUE(FillWalForCrash(db.get(), crash, &keys).ok());
    // "Crash": drop the DB without flushing the memtable.
  }

  RecoveryMeasurement m = MeasureRecovery(options_, dbname_);
  ASSERT_TRUE(m.status.ok());
  EXPECT_GT(m.stats.records_replayed, 0u);
  EXPECT_GT(m.stats.bytes_replayed, 0u);
  EXPECT_EQ(segments_, m.stats.shards_used);

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  EXPECT_EQ(0u, VerifyRecoveredKeys(db.get(), crash, keys));
}

TEST_P(RecoveryParam, RepeatedCrashRecoverCycles) {
  CrashWorkloadOptions crash;
  crash.wal_bytes = 256 * 1024;
  uint64_t keys = 0;
  for (int cycle = 0; cycle < 3; cycle++) {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
    crash.seed = 42;  // Same data each cycle; overwrites are fine.
    ASSERT_TRUE(FillWalForCrash(db.get(), crash, &keys).ok());
  }
  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  EXPECT_EQ(0u, VerifyRecoveredKeys(db.get(), crash, keys));
}

INSTANTIATE_TEST_SUITE_P(WalShards, RecoveryParam,
                         ::testing::Values(1, 2, 4, 8));

// Changing the segment count between runs must not lose data: the WAL
// lists and replays every file of a log whatever K wrote it.
class WalSwitchTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(WalSwitchTest, DataSurvivesSegmentCountSwitch) {
  const int first = GetParam().first;
  const int second = GetParam().second;
  std::string dbname = ::testing::TempDir() + "/rocksmash_walswitch_" +
                       std::to_string(first) + "_" + std::to_string(second);
  std::filesystem::remove_all(dbname);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());

  auto options_for = [](int segments) {
    DBOptions options;
    options.wal_segments = segments;
    options.write_buffer_size = 8 << 20;
    return options;
  };

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_for(first), dbname, &db).ok());
    WriteOptions sync;
    sync.sync = true;
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(
          db->Put(sync, "k" + std::to_string(i), "v" + std::to_string(i))
              .ok());
    }
    // No flush: everything lives in the first run's segments.
  }

  {
    // Reopen with the OTHER segment count.
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_for(second), dbname, &db).ok());
    std::string value;
    for (int i = 0; i < 300; i++) {
      ASSERT_TRUE(
          db->Get(ReadOptions(), "k" + std::to_string(i), &value).ok())
          << i;
      EXPECT_EQ("v" + std::to_string(i), value);
    }
    // Write more under the new count, crash again, and recover once more
    // with it: both generations must be intact.
    WriteOptions sync;
    sync.sync = true;
    for (int i = 300; i < 400; i++) {
      ASSERT_TRUE(
          db->Put(sync, "k" + std::to_string(i), "v" + std::to_string(i))
              .ok());
    }
  }

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options_for(second), dbname, &db).ok());
    std::string value;
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(
          db->Get(ReadOptions(), "k" + std::to_string(i), &value).ok())
          << i;
    }
  }
  std::filesystem::remove_all(dbname);
}

INSTANTIATE_TEST_SUITE_P(
    Directions, WalSwitchTest,
    ::testing::Values(std::make_pair(1, 4), std::make_pair(4, 1)),
    [](const ::testing::TestParamInfo<std::pair<int, int>>& param_info) {
      return "Segments" + std::to_string(param_info.param.first) + "To" +
             std::to_string(param_info.param.second);
    });

// A store written by the single-file WAL that predates the striped one:
// its unflushed {number}.log must replay at any segment count, and once a
// flush retires a log every file of it is deleted, whatever its format.
class LegacyLogTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    dbname_ = ::testing::TempDir() + "/rocksmash_legacy_log_" +
              std::to_string(GetParam());
    std::filesystem::remove_all(dbname_);
    options_.wal_segments = GetParam();
    options_.write_buffer_size = 8 << 20;
  }

  void TearDown() override { std::filesystem::remove_all(dbname_); }

  // Numbers of the logs on disk, in either format.
  std::set<uint64_t> LogNumbers() {
    std::vector<std::string> children;
    EXPECT_TRUE(Env::Default()->GetChildren(dbname_, &children).ok());
    std::set<uint64_t> numbers;
    for (const std::string& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          (type == FileType::kLogFile || type == FileType::kEWalFile)) {
        numbers.insert(number);
      }
    }
    return numbers;
  }

  // Creates the store and leaves its live log `number` in the legacy
  // format: kKeys unflushed Puts in one {number}.log written by log::Writer
  // directly. `keep_segments` keeps the empty segments the open created
  // next to it, so the log has files of both formats.
  void WriteLegacyStore(bool keep_segments, uint64_t* number) {
    Env* env = Env::Default();
    {
      std::unique_ptr<DB> db;
      ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
      ASSERT_TRUE(db->Close().ok());
    }
    const std::set<uint64_t> logs = LogNumbers();
    ASSERT_EQ(1u, logs.size());
    *number = *logs.begin();
    for (int k = 0; !keep_segments && k < GetParam(); k++) {
      ASSERT_TRUE(env->RemoveFile(EWalFileName(dbname_, *number, k)).ok());
    }
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        env->NewWritableFile(LogFileName(dbname_, *number), &file).ok());
    log::Writer writer(file.get());
    for (int i = 0; i < kKeys; i++) {
      WriteBatch batch;
      batch.Put("legacy" + std::to_string(i), "v" + std::to_string(i));
      WriteBatchInternal::SetSequence(&batch,
                                      static_cast<SequenceNumber>(i) + 1);
      ASSERT_TRUE(writer.AddRecord(WriteBatchInternal::Contents(&batch)).ok());
    }
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
  }

  static constexpr int kKeys = 200;
  std::string dbname_;
  DBOptions options_;
};

TEST_P(LegacyLogTest, UnflushedLegacyLogReplays) {
  uint64_t legacy = 0;
  ASSERT_NO_FATAL_FAILURE(WriteLegacyStore(/*keep_segments=*/false, &legacy));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  EXPECT_EQ(static_cast<uint64_t>(kKeys),
            db->GetRecoveryStats().records_replayed);
  std::string value;
  for (int i = 0; i < kKeys; i++) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "legacy" + std::to_string(i), &value).ok())
        << i;
    EXPECT_EQ("v" + std::to_string(i), value);
  }
  // New writes continue the recovered sequence, so they shadow nothing.
  ASSERT_TRUE(db->Put(WriteOptions(), "legacy0", "new").ok());
  ASSERT_TRUE(db->Get(ReadOptions(), "legacy0", &value).ok());
  EXPECT_EQ("new", value);
}

TEST_P(LegacyLogTest, RetiredLogsLeaveNoFileOfEitherFormat) {
  uint64_t legacy = 0;
  ASSERT_NO_FATAL_FAILURE(WriteLegacyStore(/*keep_segments=*/true, &legacy));

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options_, dbname_, &db).ok());
  // Recovery flushed log `legacy` to L0 and opened a new log.
  std::set<uint64_t> logs = LogNumbers();
  ASSERT_EQ(1u, logs.size());
  const uint64_t live = *logs.begin();
  EXPECT_GT(live, legacy);

  ASSERT_TRUE(db->Put(WriteOptions(), "after", "flush").ok());
  ASSERT_TRUE(db->FlushMemTable().ok());
  // Close waits for the flush job, including its obsolete-file GC.
  ASSERT_TRUE(db->Close().ok());
  logs = LogNumbers();
  ASSERT_EQ(1u, logs.size());
  EXPECT_GT(*logs.begin(), live);
  EXPECT_FALSE(Env::Default()->FileExists(LogFileName(dbname_, legacy)));
  Env* env = Env::Default();
  for (int k = 0; k < GetParam(); k++) {
    EXPECT_FALSE(env->FileExists(EWalFileName(dbname_, legacy, k))) << k;
    EXPECT_FALSE(env->FileExists(EWalFileName(dbname_, live, k))) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Segments, LegacyLogTest, ::testing::Values(1, 4));

TEST(EWalEngineTest, SequencesConsistentAfterParallelReplay) {
  // Writes interleaved with overwrites: parallel out-of-order replay must
  // still make the *latest* write win for every key.
  std::string dbname = ::testing::TempDir() + "/rocksmash_ewal_seq";
  std::filesystem::remove_all(dbname);
  ASSERT_TRUE(Env::Default()->CreateDirRecursively(dbname).ok());

  DBOptions options;
  options.wal_segments = 4;
  options.write_buffer_size = 32 * 1024 * 1024;

  {
    std::unique_ptr<DB> db;
    ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
    // Each key written 5 times; versions land in different segments.
    for (int version = 0; version < 5; version++) {
      for (int k = 0; k < 200; k++) {
        ASSERT_TRUE(db->Put(WriteOptions(), "key" + std::to_string(k),
                            "v" + std::to_string(version))
                        .ok());
      }
    }
    WriteOptions sync;
    sync.sync = true;
    ASSERT_TRUE(db->Put(sync, "fence", "done").ok());
  }

  std::unique_ptr<DB> db;
  ASSERT_TRUE(DB::Open(options, dbname, &db).ok());
  std::string value;
  for (int k = 0; k < 200; k++) {
    ASSERT_TRUE(
        db->Get(ReadOptions(), "key" + std::to_string(k), &value).ok());
    EXPECT_EQ("v4", value) << k;
  }
  db.reset();
  std::filesystem::remove_all(dbname);
}

}  // namespace
}  // namespace rocksmash
