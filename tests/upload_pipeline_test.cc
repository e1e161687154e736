// Tests for the asynchronous cloud-upload pipeline in TieredTableStorage:
//   - Install() at a cloud level returns once the file is durable locally;
//     the PUT happens on the upload pool and reads keep being served from
//     the local staging copy until the upload completes (state kUploading),
//   - transient PUT failures are retried with backoff off the foreground
//     path, and each durable upload is counted exactly once by the cloud
//     cost meter (failed attempts never reach the op counters),
//   - an outage parks the upload after exhausting its retries; the file
//     keeps serving reads locally and the parked state survives a restart
//     (rediscovered as local, re-uploaded on the next placement change).
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>

#include "cloud/object_store.h"
#include "env/env.h"
#include "lsm/shared_resources.h"
#include "mash/placement.h"
#include "util/clock.h"

namespace rocksmash {
namespace {

std::string TestDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/rocksmash_uppipe_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Build a fake table file of `size` bytes through the staging interface.
void StageFile(TieredTableStorage* storage, uint64_t number,
               const std::string& payload) {
  std::unique_ptr<WritableFile> f;
  ASSERT_TRUE(storage->NewStagingFile(number, &f).ok());
  ASSERT_TRUE(f->Append(payload).ok());
  ASSERT_TRUE(f->Close().ok());
}

std::string PayloadOf(uint64_t number, size_t size = 1000) {
  std::string p;
  p.reserve(size);
  while (p.size() < size) {
    p += static_cast<char>('a' + (number + p.size()) % 26);
  }
  return p;
}

TEST(UploadPipeline, AsyncInstallUploadsInBackground) {
  std::string dir = TestDir("async_basic");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  auto cloud = NewMemObjectStore(&clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.async_uploads = true;
  TieredTableStorage storage(ts);

  const std::string payload = PayloadOf(1);
  StageFile(&storage, 1, payload);
  ASSERT_TRUE(storage.Install(1, 0, payload.size(), payload.size() - 100).ok());

  storage.WaitForPendingUploads();

  EXPECT_FALSE(storage.IsLocal(1));
  auto stats = storage.GetStats();
  EXPECT_EQ(1u, stats.uploads);
  EXPECT_EQ(0u, stats.pending_uploads);
  EXPECT_EQ(0u, stats.local_files);
  EXPECT_EQ(1u, stats.cloud_files);
  EXPECT_EQ(1u, cloud->Counters().puts);

  std::unique_ptr<BlockSource> source;
  uint64_t size = 0;
  ASSERT_TRUE(storage.OpenTable(1, &source, &size).ok());
  EXPECT_EQ(payload.size(), size);
  std::string got;
  ASSERT_TRUE(source->ReadRaw(0, 64, &got).ok());
  EXPECT_EQ(payload.substr(0, 64), got);
  std::filesystem::remove_all(dir);
}

// The acceptance criterion from the async pipeline: a read of a file whose
// upload is still in flight is served from the local staging copy and never
// waits on (or touches) the cloud. The PUT is made genuinely slow on a real
// clock so the kUploading window is wide open while we read.
TEST(UploadPipeline, ReadsServeLocallyWhileUploadInFlight) {
  std::string dir = TestDir("read_during_upload");
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1'000'000;  // 1s: upload stays in flight.
  model.get_first_byte_micros = 0;
  auto cloud = NewMemObjectStore(SystemClock::Default(), model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.async_uploads = true;
  TieredTableStorage storage(ts);

  const std::string payload = PayloadOf(7);
  StageFile(&storage, 7, payload);

  SystemClock* wall = SystemClock::Default();
  const uint64_t install_start = wall->NowMicros();
  ASSERT_TRUE(storage.Install(7, 0, payload.size(), payload.size() - 100).ok());
  // Install enqueued the PUT instead of performing it inline.
  EXPECT_LT(wall->NowMicros() - install_start, 500'000u);

  EXPECT_EQ(1u, storage.GetStats().pending_uploads);
  EXPECT_TRUE(storage.IsLocal(7));

  // Read while the upload is in flight: served locally, zero cloud GETs.
  std::unique_ptr<BlockSource> source;
  uint64_t size = 0;
  ASSERT_TRUE(storage.OpenTable(7, &source, &size).ok());
  EXPECT_EQ(payload.size(), size);
  std::string got;
  const uint64_t read_start = wall->NowMicros();
  ASSERT_TRUE(source->ReadRaw(100, 200, &got).ok());
  EXPECT_LT(wall->NowMicros() - read_start, 500'000u)
      << "read blocked behind the in-flight upload";
  EXPECT_EQ(payload.substr(100, 200), got);
  EXPECT_EQ(0u, cloud->Counters().gets);

  storage.WaitForPendingUploads();
  EXPECT_FALSE(storage.IsLocal(7));
  EXPECT_EQ(1u, cloud->Counters().puts);
  EXPECT_EQ(0u, storage.GetStats().pending_uploads);
  std::filesystem::remove_all(dir);
}

TEST(UploadPipeline, TransientFailuresRetriedWithBackoff) {
  std::string dir = TestDir("async_retry");
  SimClock cloud_clock;
  SimClock retry_clock;  // Separate, so backoff is observable on its own.
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&cloud_clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.cloud_retry_attempts = 3;
  ts.retry_clock = &retry_clock;
  ts.async_uploads = true;
  // One upload thread: PUT attempts are serialized, so with fail_every_n=2
  // every failed attempt is followed by a successful retry.
  SharedResourcesOptions sro;
  sro.upload_threads = 1;
  ASSERT_TRUE(SharedResources::Create(sro, &ts.shared_resources).ok());
  TieredTableStorage storage(ts);

  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, injectable);
  CloudFaultPolicy policy;
  policy.fail_every_n = 2;
  injectable->SetFaultPolicy(policy);

  const int kFiles = 6;
  for (uint64_t n = 1; n <= kFiles; n++) {
    const std::string payload = PayloadOf(n, 500);
    StageFile(&storage, n, payload);
    ASSERT_TRUE(storage.Install(n, 0, payload.size(), 400).ok()) << n;
  }
  storage.WaitForPendingUploads();

  EXPECT_EQ(0u, storage.FailedUploads());
  EXPECT_GT(storage.RetriedUploads(), 0u);
  // Backoff ran on the retry clock, off the foreground path.
  EXPECT_GE(retry_clock.NowMicros(), ts.cloud_retry_backoff_micros);

  auto stats = storage.GetStats();
  EXPECT_EQ(static_cast<uint64_t>(kFiles), stats.uploads);
  EXPECT_EQ(0u, stats.pending_uploads);
  // Failed attempts never reach the op counters, so the cost meter charges
  // each durable upload exactly once.
  EXPECT_EQ(static_cast<uint64_t>(kFiles), cloud->Counters().puts);
  for (uint64_t n = 1; n <= kFiles; n++) {
    EXPECT_FALSE(storage.IsLocal(n)) << n;
  }
  std::filesystem::remove_all(dir);
}

TEST(UploadPipeline, OutageParksUploadAndKeepsServingReads) {
  std::string dir = TestDir("async_outage");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.cloud_retry_attempts = 2;
  ts.retry_clock = &clock;
  ts.async_uploads = true;
  TieredTableStorage storage(ts);

  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, injectable);
  CloudFaultPolicy policy;
  policy.unavailable = true;
  injectable->SetFaultPolicy(policy);

  const std::string payload = PayloadOf(3);
  StageFile(&storage, 3, payload);
  ASSERT_TRUE(storage.Install(3, 0, payload.size(), payload.size() - 100).ok());
  storage.WaitForPendingUploads();

  // Parked: retries exhausted, file still serving from its durable local
  // copy, nothing charged to the cloud.
  EXPECT_EQ(1u, storage.FailedUploads());
  auto stats = storage.GetStats();
  EXPECT_EQ(1u, stats.pending_uploads);
  EXPECT_EQ(0u, stats.uploads);
  EXPECT_TRUE(storage.IsLocal(3));
  EXPECT_EQ(0u, cloud->Counters().puts);

  std::unique_ptr<BlockSource> source;
  uint64_t size = 0;
  ASSERT_TRUE(storage.OpenTable(3, &source, &size).ok());
  std::string got;
  ASSERT_TRUE(source->ReadRaw(0, 128, &got).ok());
  EXPECT_EQ(payload.substr(0, 128), got);
  EXPECT_EQ(0u, cloud->Counters().gets);
  std::filesystem::remove_all(dir);
}

// "Crash" while an upload is parked/in flight: the local staging copy is
// durable, so a restart rediscovers the file as local and the next placement
// change re-uploads it. No data is lost, no object is double-charged.
TEST(UploadPipeline, CrashDuringUploadSurvivesReopen) {
  std::string dir = TestDir("async_crash");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.cloud_retry_attempts = 2;
  ts.retry_clock = &clock;
  ts.async_uploads = true;

  const std::string payload = PayloadOf(5);
  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, injectable);
  {
    TieredTableStorage storage(ts);
    CloudFaultPolicy policy;
    policy.unavailable = true;
    injectable->SetFaultPolicy(policy);
    StageFile(&storage, 5, payload);
    ASSERT_TRUE(
        storage.Install(5, 0, payload.size(), payload.size() - 100).ok());
    storage.WaitForPendingUploads();
    EXPECT_EQ(1u, storage.FailedUploads());
    // Destructor shuts the upload pool down with the upload still parked —
    // the crash point. The staging copy stays on disk.
  }
  EXPECT_EQ(0u, cloud->Counters().puts);

  // Outage over; restart.
  injectable->SetFaultPolicy(CloudFaultPolicy{});
  TieredTableStorage reopened(ts);
  EXPECT_TRUE(reopened.IsLocal(5));
  EXPECT_EQ(1u, reopened.GetStats().local_files);

  // Data intact across the crash.
  std::unique_ptr<BlockSource> source;
  uint64_t size = 0;
  ASSERT_TRUE(reopened.OpenTable(5, &source, &size).ok());
  EXPECT_EQ(payload.size(), size);
  std::string got;
  ASSERT_TRUE(source->ReadRaw(0, 256, &got).ok());
  EXPECT_EQ(payload.substr(0, 256), got);

  // The next placement change re-enqueues the upload; this time it lands.
  ASSERT_TRUE(reopened.OnLevelChange(5, 0).ok());
  reopened.WaitForPendingUploads();
  EXPECT_FALSE(reopened.IsLocal(5));
  EXPECT_EQ(1u, cloud->Counters().puts);
  EXPECT_EQ(0u, reopened.GetStats().pending_uploads);

  std::unique_ptr<BlockSource> cloud_source;
  ASSERT_TRUE(reopened.OpenTable(5, &cloud_source, &size).ok());
  ASSERT_TRUE(cloud_source->ReadRaw(300, 100, &got).ok());
  EXPECT_EQ(payload.substr(300, 100), got);
  std::filesystem::remove_all(dir);
}

// Removing a file while its upload is parked must not leave the pipeline
// counting it as pending forever.
TEST(UploadPipeline, RemoveWhileUploadParked) {
  std::string dir = TestDir("async_remove");
  SimClock clock;
  CloudLatencyModel model;
  model.jitter_micros = 0;
  model.put_first_byte_micros = 1;
  auto cloud = NewMemObjectStore(&clock, model);

  TieredStorageOptions ts;
  ts.local_dir = dir;
  ts.cloud = cloud.get();
  ts.cloud_level_start = 0;
  ts.cloud_retry_attempts = 1;
  ts.retry_clock = &clock;
  ts.async_uploads = true;
  TieredTableStorage storage(ts);

  auto* injectable = dynamic_cast<FaultInjectable*>(cloud.get());
  ASSERT_NE(nullptr, injectable);
  CloudFaultPolicy policy;
  policy.unavailable = true;
  injectable->SetFaultPolicy(policy);

  const std::string payload = PayloadOf(9, 400);
  StageFile(&storage, 9, payload);
  ASSERT_TRUE(storage.Install(9, 0, payload.size(), 300).ok());
  storage.WaitForPendingUploads();
  EXPECT_EQ(1u, storage.GetStats().pending_uploads);

  injectable->SetFaultPolicy(CloudFaultPolicy{});
  EXPECT_TRUE(storage.Remove(9).ok());
  auto stats = storage.GetStats();
  EXPECT_EQ(0u, stats.pending_uploads);
  EXPECT_EQ(0u, stats.local_files);
  std::vector<uint64_t> numbers;
  ASSERT_TRUE(storage.ListTables(&numbers).ok());
  EXPECT_TRUE(numbers.empty());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rocksmash
