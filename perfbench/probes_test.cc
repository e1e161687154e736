// Cross-checks the benchmark's decorators against the numbers the store
// reports about itself, on a tiny RocksMash store: a measurement layer that
// disagrees with the tickers would make every per-layer metric suspect.
//
//   ObjectStore decorator GETs / PUTs  ==  cloud.get.count / cloud.put.count
//   Env syncs of WAL files             ==  wal.syncs
//   Env opens of pcache files          >=  pcache.hit
//
// Build and run: cmake --build <build dir> --target probes_test, then
// ctest --test-dir <build dir> (or run the binary; exit 0 = pass).
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "baselines/kvstore.h"
#include "oracle.h"
#include "probes.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/random.h"

namespace {

int g_failures = 0;

#define CHECK_TRUE(cond)                                               \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      g_failures++;                                                    \
    }                                                                  \
  } while (0)

#define CHECK_EQ_U64(a, b)                                                  \
  do {                                                                      \
    const uint64_t va = (a), vb = (b);                                      \
    if (va != vb) {                                                         \
      std::fprintf(stderr, "%s:%d: %s == %s failed: %" PRIu64 " vs %" PRIu64 \
                   "\n",                                                    \
                   __FILE__, __LINE__, #a, #b, va, vb);                     \
      g_failures++;                                                         \
    }                                                                       \
  } while (0)

void RequireOk(const rocksmash::Status& s, const char* what) {
  if (!s.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, s.ToString().c_str());
    std::exit(1);
  }
}

void TestClassifyFile() {
  using perfbench::ClassifyFile;
  CHECK_TRUE(ClassifyFile("db/000012.sst") == perfbench::kSst);
  CHECK_TRUE(ClassifyFile("db/000012.tmp") == perfbench::kSst);
  CHECK_TRUE(ClassifyFile("db/000007.log") == perfbench::kWal);
  CHECK_TRUE(ClassifyFile("db/ewal-000007-002.log") == perfbench::kWal);
  CHECK_TRUE(ClassifyFile("db/MANIFEST-000003") == perfbench::kManifest);
  CHECK_TRUE(ClassifyFile("db/CURRENT") == perfbench::kManifest);
  CHECK_TRUE(ClassifyFile("db/pcache/data/extent-9-1.cache") ==
             perfbench::kPcache);
  CHECK_TRUE(ClassifyFile("db/pcache/meta/9.meta") == perfbench::kMeta);
  CHECK_TRUE(ClassifyFile("db/SHARDS") == perfbench::kOther);
}

void TestDecoratorsAgreeWithTickers() {
  constexpr uint64_t kKeys = 3000;
  rocksmash::SimClock clock;
  std::unique_ptr<rocksmash::Env> mem = rocksmash::NewMemEnv();
  rocksmash::DeviceLatencyModel device;
  device.sync_micros = 100;
  std::unique_ptr<rocksmash::Env> timed =
      rocksmash::NewTimedEnv(mem.get(), &clock, device);
  std::unique_ptr<perfbench::CountingEnv> env =
      perfbench::NewCountingEnv(timed.get());
  std::unique_ptr<rocksmash::ObjectStore> bucket =
      rocksmash::NewMemObjectStore(&clock);
  std::unique_ptr<perfbench::CountingObjectStore> cloud =
      perfbench::NewCountingObjectStore(bucket.get());
  rocksmash::Statistics stats;

  rocksmash::SchemeOptions o;
  o.local_dir = "db";
  o.env = env.get();
  o.cloud = cloud.get();
  o.statistics = &stats;
  o.write_buffer_size = 64 * 1024;
  o.max_file_size = 64 * 1024;
  o.max_bytes_for_level_base = 256 * 1024;
  o.local_cache_bytes = 256 * 1024;
  o.block_cache_bytes = 64 * 1024;
  std::unique_ptr<rocksmash::KVStore> store;
  RequireOk(rocksmash::OpenKVStore(o, &store), "open");

  char key[perfbench::kKeySize + 1];
  char value[perfbench::kValueSize];
  for (uint64_t i = 0; i < kKeys; i++) {
    perfbench::EncodeKey(i, key);
    perfbench::EncodeValue(7, i, 1, value);
    RequireOk(store->Put(rocksmash::WriteOptions(),
                         rocksmash::Slice(key, perfbench::kKeySize),
                         rocksmash::Slice(value, perfbench::kValueSize)),
              "load");
  }
  RequireOk(store->FlushMemTable(), "flush");
  store->WaitForCompaction();
  while (store->Stats().storage.pending_uploads > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Reads: a full scan, then point reads twice over the same keys so the
  // second pass hits the persistent cache.
  {
    std::unique_ptr<rocksmash::Iterator> it =
        store->NewIterator(rocksmash::ReadOptions());
    uint64_t rows = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) rows++;
    CHECK_EQ_U64(rows, kKeys);
  }
  rocksmash::Random64 rng(3);
  for (int pass = 0; pass < 2; pass++) {
    rocksmash::Random64 keys(11);
    for (int i = 0; i < 400; i++) {
      const uint64_t index = keys.Uniform(kKeys);
      rocksmash::PinnableSlice got;
      RequireOk(store->Get(rocksmash::ReadOptions(),
                           perfbench::KeyFor(index), &got),
                "get");
      CHECK_TRUE(perfbench::CheckValue(got, index, 1));
    }
  }
  // Synced writes, then close so every background job has finished.
  rocksmash::WriteOptions sync;
  sync.sync = true;
  for (int i = 0; i < 200; i++) {
    const uint64_t index = rng.Uniform(kKeys);
    perfbench::EncodeKey(index, key);
    perfbench::EncodeValue(7, index, 1, value);
    RequireOk(store->Put(sync, rocksmash::Slice(key, perfbench::kKeySize),
                         rocksmash::Slice(value, perfbench::kValueSize)),
              "sync put");
  }
  RequireOk(store->db()->Close(), "close");
  store.reset();

  const perfbench::CloudCounts c = cloud->Snapshot();
  const perfbench::EnvCounts e = env->Snapshot();
  std::printf("cloud gets %" PRIu64 " puts %" PRIu64 "; wal syncs %" PRIu64
              "; pcache opens %" PRIu64 " hits %" PRIu64 "\n",
              c.TotalGets(), c.puts, e.Total(perfbench::kWal).syncs,
              e.Total(perfbench::kPcache).opens,
              stats.GetTickerCount(rocksmash::PERSISTENT_CACHE_HIT));
  // The workload must have exercised every path the checks compare.
  CHECK_TRUE(c.TotalGets() > 0);
  CHECK_TRUE(c.puts > 0);
  CHECK_TRUE(e.Total(perfbench::kWal).syncs > 0);
  CHECK_TRUE(stats.GetTickerCount(rocksmash::PERSISTENT_CACHE_HIT) > 0);

  CHECK_EQ_U64(c.TotalGets(),
               stats.GetTickerCount(rocksmash::CLOUD_GET_COUNT));
  CHECK_EQ_U64(c.puts, stats.GetTickerCount(rocksmash::CLOUD_PUT_COUNT));
  CHECK_EQ_U64(e.Total(perfbench::kWal).syncs,
               stats.GetTickerCount(rocksmash::WAL_SYNCS));
  CHECK_TRUE(e.Total(perfbench::kPcache).opens >=
             stats.GetTickerCount(rocksmash::PERSISTENT_CACHE_HIT));
}

}  // namespace

int main() {
  TestClassifyFile();
  TestDecoratorsAgreeWithTickers();
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("probes_test: all checks passed\n");
  return 0;
}
