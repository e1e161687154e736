// RocksMash end-to-end benchmark: one workload per invocation, measured from
// outside the store. See README.md in this directory for the workloads, the
// metrics and how to read the traced run.
//
//   mash_bench --workload point-local|cloud-mixed|put-sync --seed N
//              --seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//              [--steady-bound F]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/kvstore.h"
#include "cloud/cost_meter.h"
#include "cloud/object_store.h"
#include "env/env.h"
#include "oracle.h"
#include "probes.h"
#include "util/clock.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/random.h"
#include "workload/zipf.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using rocksmash::CloudLatencyModel;
using rocksmash::DeviceLatencyModel;
using rocksmash::Env;
using rocksmash::KVStore;
using rocksmash::ObjectStore;
using rocksmash::PerfContext;
using rocksmash::PinnableSlice;
using rocksmash::ReadOptions;
using rocksmash::SchemeOptions;
using rocksmash::Slice;
using rocksmash::Statistics;
using rocksmash::Status;
using rocksmash::WriteOptions;

// Common setup (README.md "Common setup").
constexpr uint64_t kNumKeys = 100000;
constexpr uint64_t kUserBytes = kNumKeys * (kKeySize + kValueSize);
constexpr int kLoadBatch = 100;
// The load order, and with it which keys settle in the local L1 and which
// in the cloud L2, is the same for every seed; the seed drives the op
// streams, the cloud jitter and the value filler. A seeded load order made
// the hot keys' local share, and so every cloud-mixed number, vary by seed.
constexpr uint64_t kLoadOrderSeed = 0x10ad;
constexpr uint64_t kSyncMicros = 100;  // NVMe-class modeled fsync
constexpr int kSetupsPerRun = 3;       // setup_s is their median
constexpr int kRecoveryReps = 9;       // recovery_s is their median
constexpr int kRecoveryClients = 4;
constexpr int kRecoveryPutsPerClient = 500;
constexpr size_t kSpanCap = 100000;
constexpr const char* kLocalDir = "db";  // inside the rig's MemEnv

struct Workload {
  const char* name;
  uint64_t local_cache_bytes;
  int clients;
  double scan_share;  // of reads; put-sync does only puts
  bool puts;
};

constexpr Workload kWorkloads[] = {
    {"point-local", 64ull << 20, 2, 0.0, false},
    {"cloud-mixed", 8ull << 20, 4, 0.5, false},
    {"put-sync", 8ull << 20, 4, 0.0, true},
};

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;
  std::string git_sha = "unknown";
  double steady_bound = 0.1;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mash_bench: %s\n", what.c_str());
  std::exit(2);
}

void CheckOk(const Status& s, const char* what) {
  if (!s.ok()) Die(std::string(what) + ": " + s.ToString());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) / 1e9; }

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- Store rig -------------------------------------------------------------

// One store over an in-process device and bucket: the modeled NVMe TimedEnv
// over a MemEnv, and the in-memory simulated object store with the default
// latency model, each wrapped by the benchmark's counting decorator.
struct Rig {
  std::unique_ptr<Env> mem;
  std::unique_ptr<Env> device;
  std::unique_ptr<CountingEnv> env;
  std::unique_ptr<ObjectStore> bucket;
  std::unique_ptr<CountingObjectStore> cloud;
  std::unique_ptr<Statistics> stats;
  SchemeOptions options;
  std::unique_ptr<KVStore> store;
  // Oracle: the last acknowledged version of every key. Each key has one
  // writer at a time, so this is exact.
  std::vector<uint32_t> versions;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Device time is waited out by spinning: a 100 us sleep overshoots by the
// timer slack and by however long the woken thread waits for a CPU, which
// would make the modeled sync cost vary with the host's load.
class SpinClock final : public rocksmash::Clock {
 public:
  uint64_t NowMicros() override { return perfbench::NowNanos() / 1000; }
  void SleepMicros(uint64_t micros) override {
    const uint64_t until = perfbench::NowNanos() + micros * 1000;
    while (perfbench::NowNanos() < until) {
    }
  }
};

DeviceLatencyModel DeviceModel() {
  DeviceLatencyModel m;
  m.sync_micros = kSyncMicros;
  return m;
}

std::unique_ptr<Rig> NewRig(const Args& args, bool with_statistics) {
  static SpinClock spin_clock;
  auto rig = std::make_unique<Rig>();
  rig->mem = rocksmash::NewMemEnv();
  rig->device =
      rocksmash::NewTimedEnv(rig->mem.get(), &spin_clock, DeviceModel());
  rig->env = NewCountingEnv(rig->device.get());
  rig->bucket = rocksmash::NewMemObjectStore(
      rocksmash::SystemClock::Default(), CloudLatencyModel{}, args.seed);
  rig->cloud = NewCountingObjectStore(rig->bucket.get());
  if (with_statistics) rig->stats = std::make_unique<Statistics>();

  // Library defaults, except the sizes the workload sets (README.md).
  SchemeOptions& o = rig->options;
  o.kind = rocksmash::SchemeKind::kRocksMash;
  o.local_dir = kLocalDir;
  o.cloud = rig->cloud.get();
  o.env = rig->env.get();
  o.local_cache_bytes = args.workload->local_cache_bytes;
  o.statistics = rig->stats.get();
  CheckOk(rocksmash::OpenKVStore(o, &rig->store), "open");
  rig->versions.assign(kNumKeys, 0);
  return rig;
}

void WaitForUploads(KVStore* store) {
  const uint64_t deadline = NowNanos() + 120ull * 1000000000;
  while (store->Stats().storage.pending_uploads > 0) {
    if (NowNanos() > deadline) Die("uploads did not drain");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// Flush, then wait until no compaction or upload is pending.
void Settle(KVStore* store) {
  CheckOk(store->FlushMemTable(), "flush");
  store->WaitForCompaction();
  WaitForUploads(store);
  store->WaitForCompaction();
}

// Full forward scan checking every key and value against the oracle.
// Returns the number of rows that failed the check (missing rows count).
uint64_t VerifyAll(Rig* rig) {
  ReadOptions ro;
  std::unique_ptr<rocksmash::Iterator> it = rig->store->NewIterator(ro);
  uint64_t expect = 0;
  uint64_t bad = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    uint64_t index = 0;
    if (!DecodeKey(it->key(), &index) || index >= kNumKeys) {
      bad++;
      continue;
    }
    if (index != expect ||
        !CheckValue(it->value(), index, rig->versions[index])) {
      bad++;
    }
    expect = std::max(expect, index) + 1;
  }
  if (!it->status().ok()) bad++;
  if (expect < kNumKeys) bad += kNumKeys - expect;
  rig->attempted += kNumKeys;
  rig->failed += bad;
  return bad;
}

struct SetupTimes {
  double load_s = 0, settle_s = 0, warm_s = 0, total_s = 0;
  uint64_t warm_cloud_gets = 0;
};

// Load (seeded order, unsynced batches) + settle + warm-up scan.
SetupTimes LoadSettleWarm(Rig* rig, uint64_t seed) {
  SetupTimes t;
  const uint64_t t0 = NowNanos();
  std::vector<uint64_t> order(kNumKeys);
  for (uint64_t i = 0; i < kNumKeys; i++) order[i] = i;
  rocksmash::Random64 rng(kLoadOrderSeed);
  for (uint64_t i = kNumKeys - 1; i > 0; i--) {
    std::swap(order[i], order[rng.Uniform(i + 1)]);
  }
  rocksmash::WriteBatch batch;
  char key[kKeySize + 1];
  char value[kValueSize];
  for (uint64_t i = 0; i < kNumKeys; i++) {
    const uint64_t index = order[i];
    rig->versions[index] = 1;
    EncodeKey(index, key);
    EncodeValue(seed, index, 1, value);
    batch.Put(Slice(key, kKeySize), Slice(value, kValueSize));
    if ((i + 1) % kLoadBatch == 0 || i + 1 == kNumKeys) {
      CheckOk(rig->store->Write(WriteOptions(), &batch), "load");
      batch.Clear();
    }
  }
  const uint64_t t1 = NowNanos();
  Settle(rig->store.get());
  const uint64_t t2 = NowNanos();
  const uint64_t gets_before = rig->cloud->Snapshot().TotalGets();
  if (VerifyAll(rig) != 0) Die("warm-up scan found wrong or missing rows");
  const uint64_t t3 = NowNanos();
  t.warm_cloud_gets = rig->cloud->Snapshot().TotalGets() - gets_before;
  t.load_s = Seconds(t1 - t0);
  t.settle_s = Seconds(t2 - t1);
  t.warm_s = Seconds(t3 - t2);
  t.total_s = Seconds(t3 - t0);
  return t;
}

// --- Timed phase -------------------------------------------------------------

#define PERF_FIELDS(X)                                                        \
  X(get_count) X(get_from_memtable_count) X(iter_seek_count)                 \
  X(iter_next_count) X(iter_fast_path_count) X(scan_runs_skipped_count)      \
  X(scan_prefetch_hit_count) X(block_cache_hit_count) X(block_read_count)    \
  X(bloom_useful_count) X(persistent_cache_hit_count)                        \
  X(persistent_cache_miss_count) X(cloud_read_count) X(cloud_read_bytes)     \
  X(readahead_hit_count) X(multiget_count) X(multiget_key_count)             \
  X(write_groups_led) X(write_group_size) X(get_from_memtable_time)          \
  X(get_from_sst_time) X(multiget_time) X(cloud_read_time) X(wal_write_time) \
  X(write_memtable_time) X(wal_sync_time) X(write_queue_wait_time)           \
  X(write_stall_time)

void AddPerf(PerfContext* sum, const PerfContext& d) {
#define ADD_FIELD(f) sum->f += d.f;
  PERF_FIELDS(ADD_FIELD)
#undef ADD_FIELD
}

// Log-linear latency histogram over nanoseconds: exact below 256 ns, then
// 128 linear buckets per power of two (each under 0.8% wide). Memory stays
// constant however many ops a run completes, so peak RSS does not grow with
// throughput. Percentiles interpolate within the bucket.
class LatencyHistogram {
 public:
  void Add(uint64_t ns) {
    counts_[Index(ns)]++;
    total_++;
  }
  void Merge(const LatencyHistogram& other) {
    for (int i = 0; i < kBuckets; i++) counts_[i] += other.counts_[i];
    total_ += other.total_;
  }
  uint64_t Count() const { return total_; }

  // Nearest-rank percentile, in microseconds.
  double PercentileUs(double pct) const {
    if (total_ == 0) return 0;
    const double rank = std::max(
        1.0, std::ceil(pct / 100.0 * static_cast<double>(total_)));
    uint64_t below = 0;
    for (int i = 0; i < kBuckets; i++) {
      if (counts_[i] == 0) continue;
      if (static_cast<double>(below + counts_[i]) >= rank) {
        const double within =
            (rank - static_cast<double>(below) - 0.5) / counts_[i];
        return (Lower(i) + within * Width(i)) / 1000.0;
      }
      below += counts_[i];
    }
    return Lower(kBuckets - 1) / 1000.0;
  }

 private:
  static constexpr int kExact = 256;
  static constexpr int kHalf = kExact / 2;
  static constexpr int kBuckets = kExact + 56 * kHalf;

  static int Index(uint64_t v) {
    if (v < kExact) return static_cast<int>(v);
    const int shift = 63 - __builtin_clzll(v) - 7;  // >= 1
    const int sub = static_cast<int>(v >> shift);   // [128, 256)
    return kExact + (shift - 1) * kHalf + (sub - kHalf);
  }
  static double Lower(int i) {
    if (i < kExact) return i;
    const int shift = (i - kExact) / kHalf + 1;
    const int sub = (i - kExact) % kHalf + kHalf;
    return std::ldexp(sub, shift);
  }
  static double Width(int i) {
    return i < kExact ? 1.0 : std::ldexp(1.0, (i - kExact) / kHalf + 1);
  }

  uint64_t counts_[kBuckets] = {};
  uint64_t total_ = 0;
};

struct ClientResult {
  LatencyHistogram latency[kNumOpKinds];
  std::vector<uint64_t> per_second;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t end_ns = 0;
  OpBreakdown breakdown[kNumOpKinds];
  PerfContext perf[kNumOpKinds];
};

// One closed-loop client: issues its next op as soon as the last returns.
void RunClient(Rig* rig, const Args& args, int client, uint64_t start_ns,
               uint64_t deadline_ns, ClientResult* out) {
  MarkClientThread();
  if (args.trace) rocksmash::SetPerfLevel(rocksmash::PerfLevel::kEnableTime);
  const Workload& w = *args.workload;
  const uint64_t client_seed = Mix64(args.seed * 131 + client);
  rocksmash::Random64 rng(client_seed);
  rocksmash::ScrambledZipfianChooser zipf(kNumKeys, 0.99, client_seed);
  out->per_second.assign(static_cast<size_t>(args.seconds) + 2, 0);
  KVStore* store = rig->store.get();
  WriteOptions sync_write;
  sync_write.sync = true;
  ReadOptions ro;
  PinnableSlice value;
  char key[kKeySize + 1];
  char buf[kValueSize];
  const uint64_t owned = kNumKeys / static_cast<uint64_t>(w.clients);

  for (;;) {
    OpKind kind = kGet;
    if (w.puts) {
      kind = kPut;
    } else if (w.scan_share > 0 && rng.NextDouble() < w.scan_share) {
      kind = kScan;
    }
    if (args.trace) rocksmash::GetPerfContext()->Reset();
    const uint64_t t0 = NowNanos();
    bool ok = true;
    {
      OpScope scope(kind, &out->breakdown[kind]);
      if (kind == kGet) {
        const uint64_t index = zipf.Next();
        EncodeKey(index, key);
        Status s = store->Get(ro, Slice(key, kKeySize), &value);
        ok = s.ok() && CheckValue(value, index, rig->versions[index]);
      } else if (kind == kScan) {
        const uint64_t start = zipf.Next();
        const uint64_t rows =
            std::min<uint64_t>(1 + rng.Uniform(100), kNumKeys - start);
        EncodeKey(start, key);
        std::unique_ptr<rocksmash::Iterator> it = store->NewIterator(ro);
        it->Seek(Slice(key, kKeySize));
        for (uint64_t r = 0; r < rows && ok; r++) {
          if (r > 0) it->Next();
          uint64_t index = 0;
          ok = it->Valid() && DecodeKey(it->key(), &index) &&
               index == start + r &&
               CheckValue(it->value(), index, rig->versions[index]);
        }
        ok = ok && it->status().ok();
      } else {
        // Client c owns the keys congruent to c, so its last acked version
        // of each is exact.
        const uint64_t index =
            rng.Uniform(owned) * static_cast<uint64_t>(w.clients) +
            static_cast<uint64_t>(client);
        const uint32_t version = rig->versions[index] + 1;
        EncodeKey(index, key);
        EncodeValue(args.seed, index, version, buf);
        Status s =
            store->Put(sync_write, Slice(key, kKeySize), Slice(buf, kValueSize));
        ok = s.ok();
        if (ok) rig->versions[index] = version;
      }
    }
    const uint64_t t1 = NowNanos();
    if (args.trace) AddPerf(&out->perf[kind], *rocksmash::GetPerfContext());
    out->latency[kind].Add(t1 - t0);
    out->ops++;
    if (!ok) out->failed++;
    const size_t second = static_cast<size_t>((t1 - start_ns) / 1000000000);
    if (second < out->per_second.size()) out->per_second[second]++;
    if (t1 >= deadline_ns) {
      out->end_ns = t1;
      break;
    }
  }
}

struct PhaseResult {
  double elapsed_s = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t ops_by_kind[kNumOpKinds] = {};
  LatencyHistogram latency[kNumOpKinds];
  std::vector<uint64_t> per_second;  // whole seconds only
  OpBreakdown breakdown[kNumOpKinds];
  PerfContext perf[kNumOpKinds];
  EnvCounts env;
  CloudCounts cloud;
  std::vector<uint64_t> tickers;  // phase deltas; traced runs only
  // Bytes under the local directory, sampled at each half second of the
  // phase: one sample after settling lands at a random point of the
  // flush/compaction cycle, the mean over the phase does not.
  std::vector<uint64_t> local_bytes;

  double OpsPerSecond() const { return Ratio(ops, elapsed_s); }
};

std::unique_ptr<PhaseResult> RunPhase(Rig* rig, const Args& args) {
  const int clients = args.workload->clients;
  // Heap-allocated: the histograms make a ClientResult large.
  auto results = std::make_unique<ClientResult[]>(static_cast<size_t>(clients));
  const EnvCounts env0 = rig->env->Snapshot();
  const CloudCounts cloud0 = rig->cloud->Snapshot();
  if (rig->stats != nullptr) rig->stats->Reset();
  if (args.trace) {
    ClearSpans(kSpanCap);
    SetTracing(true);
  }
  const uint64_t start = NowNanos();
  const uint64_t deadline =
      start + static_cast<uint64_t>(args.seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; c++) {
    threads.emplace_back(RunClient, rig, std::cref(args), c, start, deadline,
                         &results[static_cast<size_t>(c)]);
  }
  auto owned = std::make_unique<PhaseResult>();
  PhaseResult& p = *owned;
  for (uint64_t at = start + 500000000; at < deadline; at += 1000000000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(at - NowNanos()));
    p.local_bytes.push_back(DirBytes(rig->env.get(), kLocalDir));
  }
  for (auto& t : threads) t.join();
  SetTracing(false);

  p.env = rig->env->Snapshot() - env0;
  p.cloud = rig->cloud->Snapshot() - cloud0;
  if (rig->stats != nullptr) {
    for (uint32_t t = 0; t < rocksmash::TICKER_ENUM_MAX; t++) {
      p.tickers.push_back(rig->stats->GetTickerCount(t));
    }
  }
  uint64_t end = start;
  for (int c = 0; c < clients; c++) {
    const ClientResult& r = results[static_cast<size_t>(c)];
    end = std::max(end, r.end_ns);
    p.ops += r.ops;
    p.failed += r.failed;
    for (int k = 0; k < kNumOpKinds; k++) {
      p.ops_by_kind[k] += r.latency[k].Count();
      p.latency[k].Merge(r.latency[k]);
      p.breakdown[k].Add(r.breakdown[k]);
      AddPerf(&p.perf[k], r.perf[k]);
    }
    if (p.per_second.size() < r.per_second.size()) {
      p.per_second.resize(r.per_second.size(), 0);
    }
    for (size_t s = 0; s < r.per_second.size(); s++) {
      p.per_second[s] += r.per_second[s];
    }
  }
  p.elapsed_s = Seconds(end - start);
  p.per_second.resize(std::min(p.per_second.size(),
                               static_cast<size_t>(std::floor(p.elapsed_s))));
  rig->attempted += p.ops;
  rig->failed += p.failed;
  return owned;
}

// The workload's op latency percentile: the geometric mean of the percentile
// of each op kind it issues (cloud-mixed: Get and Scan; the others issue one
// kind). A percentile of the pooled samples would put cloud-mixed's median
// in the gap between the Get and the Scan distributions, where it swings
// with small shifts of either.
double OpPercentileUs(const PhaseResult& p, double pct) {
  double log_sum = 0;
  int kinds = 0;
  for (const LatencyHistogram& h : p.latency) {
    if (h.Count() == 0) continue;
    log_sum += std::log(h.PercentileUs(pct));
    kinds++;
  }
  return kinds > 0 ? std::exp(log_sum / kinds) : 0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// --- Recovery ----------------------------------------------------------------

struct RecoveryResult {
  double seconds = 0;
  rocksmash::RecoveryStats stats;
};

// Flush, write a fixed volume of synced puts, close, then time the reopen
// until the first Get returns. The Get reads a key the volume wrote, so it
// is served from the replayed memtable and the time is the recovery's alone.
RecoveryResult MeasureRecovery(Rig* rig, const Args& args, int rep) {
  CheckOk(rig->store->FlushMemTable(), "recovery flush");
  std::vector<std::thread> writers;
  std::atomic<uint64_t> errors{0};
  uint64_t last_written[kRecoveryClients] = {};
  for (int c = 0; c < kRecoveryClients; c++) {
    writers.emplace_back([rig, &args, &errors, &last_written, rep, c] {
      MarkClientThread();
      rocksmash::Random64 rng(Mix64(args.seed * 977 + rep * 31 + c));
      WriteOptions wo;
      wo.sync = true;
      char key[kKeySize + 1];
      char value[kValueSize];
      const uint64_t owned = kNumKeys / kRecoveryClients;
      for (int i = 0; i < kRecoveryPutsPerClient; i++) {
        const uint64_t index = rng.Uniform(owned) * kRecoveryClients + c;
        const uint32_t version = rig->versions[index] + 1;
        EncodeKey(index, key);
        EncodeValue(args.seed, index, version, value);
        if (rig->store->Put(wo, Slice(key, kKeySize), Slice(value, kValueSize))
                .ok()) {
          rig->versions[index] = version;
          last_written[c] = index;
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  rig->attempted += kRecoveryClients * kRecoveryPutsPerClient;
  rig->failed += errors.load();

  CheckOk(rig->store->db()->Close(), "close");
  rig->store.reset();
  const CloudCounts cloud0 = rig->cloud->Snapshot();
  const EnvCounts env0 = rig->env->Snapshot();
  const uint64_t t0 = NowNanos();
  CheckOk(rocksmash::OpenKVStore(rig->options, &rig->store), "reopen");
  const uint64_t topen = NowNanos();
  {
    const CloudCounts c = rig->cloud->Snapshot() - cloud0;
    const EnvCounts e = rig->env->Snapshot() - env0;
    std::printf("DBG open %.3f ms gets %" PRIu64 " heads %" PRIu64 " lists %" PRIu64 " puts %" PRIu64,
                (topen - t0) / 1e6, c.TotalGets(), c.heads, c.lists, c.puts);
    for (int k = 0; k < kNumFileClasses; k++) {
      const EnvCounts::Class x = e.Total(k);
      std::printf(" %s:o%" PRIu64 "/r%" PRIu64 "/w%" PRIu64 "/s%" PRIu64, FileClassName(k), x.opens, x.reads, x.writes, x.syncs);
    }
    std::printf("\n");
  }
  const uint64_t probe = last_written[0];
  PinnableSlice value;
  Status s = rig->store->Get(ReadOptions(), KeyFor(probe), &value);
  const uint64_t t1 = NowNanos();
  rig->attempted++;
  if (!s.ok() || !CheckValue(value, probe, rig->versions[probe])) {
    rig->failed++;
  }
  RecoveryResult r;
  r.seconds = Seconds(t1 - t0);
  r.stats = rig->store->Stats().recovery;
  return r;
}

// --- Output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Rig& rig, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += rig.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(rig.attempted);
  out += ", \"failed\": " + std::to_string(rig.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           JsonNumber(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void PrintProvenance(const Args& args, const SchemeOptions& o) {
  const CloudLatencyModel cm;
  const DeviceLatencyModel dm = DeviceModel();
  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u, \"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"clients\": %d, "
      "\"records\": %" PRIu64 ", \"key_bytes\": %zu, \"value_bytes\": %zu, "
      "\"storage\": \"MemEnv device + in-memory simulated bucket\", "
      "\"device_model\": {\"sync_micros\": %" PRIu64
      ", \"read_base_micros\": %" PRIu64 ", \"write_base_micros\": %" PRIu64
      ", \"wait\": \"spin\"}, \"cloud_model\": {\"get_first_byte_micros\": %" PRIu64
      ", \"put_first_byte_micros\": %" PRIu64
      ", \"download_bandwidth_bps\": %" PRIu64
      ", \"upload_bandwidth_bps\": %" PRIu64 ", \"jitter_micros\": %" PRIu64
      ", \"jitter_seed\": %" PRIu64 "}, ",
      args.git_sha.c_str(), PERFBENCH_BUILD_TYPE,
      std::thread::hardware_concurrency(), args.workload->name, args.seed,
      args.seconds, args.trace ? 1 : 0, args.workload->clients, kNumKeys,
      kKeySize, kValueSize, dm.sync_micros, dm.read_base_micros,
      dm.write_base_micros, cm.get_first_byte_micros,
      cm.put_first_byte_micros, cm.download_bandwidth_bps,
      cm.upload_bandwidth_bps, cm.jitter_micros, args.seed);
  std::printf(
      "\"scheme_options\": {\"kind\": \"%s\", \"local_cache_bytes\": %" PRIu64
      ", \"cloud_readahead_bytes\": %" PRIu64
      ", \"cloud_level_start\": %d, \"wal_segments\": %d, "
      "\"cache_layout\": %d, \"pin_hot_files\": %d, \"async_uploads\": %d, "
      "\"upload_threads\": %d, \"max_background_flushes\": %d, "
      "\"max_background_compactions\": %d, \"num_shards\": %d, "
      "\"enable_pipelined_write\": %d, "
      "\"allow_concurrent_memtable_write\": %d, "
      "\"max_write_group_bytes\": %zu, \"write_buffer_size\": %zu, "
      "\"max_file_size\": %" PRIu64 ", \"max_bytes_for_level_base\": %" PRIu64
      ", \"block_size\": %zu, \"block_cache_bytes\": %zu, "
      "\"filter_bits_per_key\": %d, \"prefix_length\": %zu, "
      "\"blob_enable\": %d, \"max_open_files\": %d, \"compress_blocks\": %d, "
      "\"statistics\": %d, \"stats_dump_period_sec\": %u}}}\n",
      rocksmash::SchemeName(o.kind), o.local_cache_bytes,
      o.cloud_readahead_bytes, o.cloud_level_start, o.wal_segments,
      static_cast<int>(o.cache_layout), o.pin_hot_files ? 1 : 0,
      o.async_uploads ? 1 : 0, o.upload_threads, o.max_background_flushes,
      o.max_background_compactions, o.num_shards,
      o.enable_pipelined_write ? 1 : 0,
      o.allow_concurrent_memtable_write ? 1 : 0, o.max_write_group_bytes,
      o.write_buffer_size, o.max_file_size, o.max_bytes_for_level_base,
      o.block_size, o.block_cache_bytes, o.filter_bits_per_key,
      o.prefix_length, o.blob.enable ? 1 : 0, o.max_open_files,
      o.compress_blocks ? 1 : 0, o.statistics != nullptr ? 1 : 0,
      o.stats_dump_period_sec);
}

// Per-second ops series and the first-half/second-half check.
double PrintSteadiness(const PhaseResult& p, double bound) {
  std::printf("ops_per_s series:");
  for (uint64_t n : p.per_second) std::printf(" %" PRIu64, n);
  const size_t n = p.per_second.size();
  double first = 0, second = 0;
  for (size_t i = 0; i < n / 2; i++) first += static_cast<double>(p.per_second[i]);
  for (size_t i = n / 2; i < n; i++) second += static_cast<double>(p.per_second[i]);
  first = Ratio(first, static_cast<double>(n / 2));
  second = Ratio(second, static_cast<double>(n - n / 2));
  const double gap = Ratio(std::fabs(second - first), (first + second) / 2);
  std::printf("\nsteadiness: first-half %.0f ops/s, second-half %.0f ops/s, "
              "gap %.1f%% (bound %.1f%%)%s\n",
              first, second, gap * 100, bound * 100,
              gap > bound ? "  UNSTEADY" : "");
  return gap * 100;
}

void PrintLatencies(const PhaseResult& p) {
  for (int k = 0; k < kNumOpKinds; k++) {
    const LatencyHistogram& h = p.latency[k];
    if (h.Count() == 0) continue;
    std::printf("%s latency: p50 %.2f us, p99 %.2f us, p99.9 %.2f us "
                "(%" PRIu64 " samples)%s\n",
                OpKindName(k), h.PercentileUs(50), h.PercentileUs(99),
                h.PercentileUs(99.9), h.Count(),
                h.Count() < 1000 ? "  TOO FEW SAMPLES FOR p99" : "");
  }
}

void WriteTrace(const Args& args) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/trace-" + args.workload->name +
                           "-" + std::to_string(args.seed) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Die("cannot write " + path);
  std::vector<SpanRecord> spans = CollectSpans();
  uint64_t base = UINT64_MAX;
  for (const SpanRecord& s : spans) base = std::min(base, s.start_ns);
  const auto& names = SpanNames();
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  for (size_t i = 0; i < spans.size(); i++) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"op\": %" PRIu64 "}}",
                 i == 0 ? "" : ",", names[s.name].c_str(), s.thread,
                 static_cast<double>(s.start_ns - base) / 1000.0,
                 static_cast<double>(s.end_ns - s.start_ns) / 1000.0, s.op_id);
  }
  std::fprintf(f, "\n], \"droppedSpans\": %" PRIu64 "}\n", DroppedSpans());
  if (std::fclose(f) != 0) Die("short write: " + path);
  std::printf("trace: %zu spans written to %s (%" PRIu64 " dropped)\n",
              spans.size(), path.c_str(), DroppedSpans());
}

// Per-op-kind breakdown of the traced phase: engine self time, Env time by
// file class and cloud time, which sum to the client-op span time.
void PrintBreakdown(const PhaseResult& p) {
  std::printf("traced breakdown (us per op):\n");
  for (int k = 0; k < kNumOpKinds; k++) {
    const OpBreakdown& b = p.breakdown[k];
    if (b.ops == 0) continue;
    const double ops = static_cast<double>(b.ops);
    double env_ns = 0;
    std::string env_text;
    for (int c = 0; c < kNumFileClasses; c++) {
      env_ns += static_cast<double>(b.children.env_ns[c]);
      if (b.children.env_ns[c] == 0) continue;
      char buf[64];
      std::snprintf(buf, sizeof(buf), " %s %.3f", FileClassName(c),
                    static_cast<double>(b.children.env_ns[c]) / ops / 1000);
      env_text += buf;
    }
    const double span = static_cast<double>(b.span_ns) / ops / 1000;
    const double self = static_cast<double>(b.self_ns) / ops / 1000;
    const double env = env_ns / ops / 1000;
    const double cloud = static_cast<double>(b.children.cloud_ns) / ops / 1000;
    std::printf("  %-4s ops %" PRIu64 ": span %.3f = self %.3f + env %.3f"
                " [%s ] + cloud %.3f (sum %.3f, %.2f%% of span; "
                "%" PRIu64 " ops with children outside the span)\n",
                OpKindName(k), b.ops, span, self, env, env_text.c_str(), cloud,
                self + env + cloud, Ratio(self + env + cloud, span) * 100,
                b.negative_self);
    const PerfContext& pc = p.perf[k];
    std::printf("       perf: memtable %.3f, sst %.3f, queue %.3f, wal %.3f, "
                "wal_sync %.3f, memtable_apply %.3f, stall %.3f\n",
                Ratio(pc.get_from_memtable_time, ops),
                Ratio(pc.get_from_sst_time, ops),
                Ratio(pc.write_queue_wait_time, ops),
                Ratio(pc.wal_write_time, ops), Ratio(pc.wal_sync_time, ops),
                Ratio(pc.write_memtable_time, ops),
                Ratio(pc.write_stall_time, ops));
  }
  for (int c = 0; c < kNumFileClasses; c++) {
    const EnvCounts::Class e = p.env.Total(c);
    if (e.opens + e.reads + e.writes + e.syncs == 0) continue;
    std::printf("  env.%-8s all threads: opens %" PRIu64 ", reads %" PRIu64
                " (%.3f ms), writes %" PRIu64 " (%.3f ms), syncs %" PRIu64
                " (%.3f ms)\n",
                FileClassName(c), e.opens, e.reads, e.read_ns / 1e6, e.writes,
                e.write_ns / 1e6, e.syncs, e.sync_ns / 1e6);
  }
  std::printf("  cloud GETs: client threads %" PRIu64 " (%.3f ms), "
              "background %" PRIu64 " (%.3f ms); PUTs %" PRIu64 "\n",
              p.cloud.gets[0], p.cloud.get_ns[0] / 1e6, p.cloud.gets[1],
              p.cloud.get_ns[1] / 1e6, p.cloud.puts);
}

double Pct(double part, double whole) { return Ratio(part, whole) * 100; }

// Share of op kind k's span time spent in its Env, cloud or engine-self part.
void AddShares(std::vector<Metric>* m, const std::string& prefix,
               const OpBreakdown& b) {
  double env = 0;
  for (uint64_t ns : b.children.env_ns) env += static_cast<double>(ns);
  const double span = static_cast<double>(b.span_ns);
  m->push_back({prefix + ".self_pct", Pct(b.self_ns, span), "%"});
  m->push_back({prefix + ".env_pct", Pct(env, span), "%"});
  m->push_back(
      {prefix + ".cloud_pct", Pct(b.children.cloud_ns, span), "%"});
}

std::vector<Metric> PerLayerMetrics(const PhaseResult& p,
                                    const SetupTimes& setup,
                                    const RecoveryResult& recovery,
                                    double untraced_ops_per_s,
                                    double half_gap_pct) {
  auto T = [&p](uint32_t ticker) {
    return static_cast<double>(p.tickers.at(ticker));
  };
  const double ops = static_cast<double>(p.ops);
  const double kops = ops / 1000;
  const double gets = static_cast<double>(p.ops_by_kind[kGet]);
  const double scans = static_cast<double>(p.ops_by_kind[kScan]);
  const double puts = static_cast<double>(p.ops_by_kind[kPut]);
  constexpr double kMiB = 1024.0 * 1024.0;

  OpBreakdown all;
  PerfContext perf;
  for (int k = 0; k < kNumOpKinds; k++) {
    all.Add(p.breakdown[k]);
    AddPerf(&perf, p.perf[k]);
  }
  const double get_span_us = p.breakdown[kGet].span_ns / 1000.0;
  const double put_span_us = p.breakdown[kPut].span_ns / 1000.0;
  const PerfContext& pg = p.perf[kGet];
  const PerfContext& ps = p.perf[kScan];
  const PerfContext& pp = p.perf[kPut];

  std::vector<Metric> m;
  m.push_back({"setup.load_s", setup.load_s, "s"});
  m.push_back({"setup.settle_s", setup.settle_s, "s"});
  m.push_back({"setup.warm_s", setup.warm_s, "s"});
  m.push_back({"setup.warm_cloud_gets",
               static_cast<double>(setup.warm_cloud_gets), "count"});
  m.push_back({"steady.half_gap_pct", half_gap_pct, "%"});
  m.push_back({"trace.ops_per_s", p.OpsPerSecond(), "ops/s"});
  m.push_back({"trace.untraced_ops_per_s", untraced_ops_per_s, "ops/s"});
  m.push_back({"trace.overhead_pct",
               Pct(untraced_ops_per_s - p.OpsPerSecond(), untraced_ops_per_s),
               "%"});

  m.push_back({"op.span_us", Ratio(all.span_ns / 1000.0, all.ops), "us"});
  AddShares(&m, "op", all);
  for (int c = 0; c < kOther; c++) {
    m.push_back({std::string("op.env.") + FileClassName(c) + "_pct",
                 Pct(all.children.env_ns[c], all.span_ns), "%"});
  }
  for (int k = 0; k < kNumOpKinds; k++) {
    AddShares(&m, OpKindName(k), p.breakdown[k]);
  }

  // lsm
  m.push_back({"lsm.get.memtable_pct",
               Pct(pg.get_from_memtable_time, get_span_us), "%"});
  m.push_back(
      {"lsm.get.sst_pct", Pct(pg.get_from_sst_time, get_span_us), "%"});
  m.push_back(
      {"lsm.bloom.useful_per_get", Ratio(pg.bloom_useful_count, gets), "count"});
  m.push_back({"lsm.table_open.per_kop",
               Ratio(p.env.by_thread[0][kSst].opens, kops), "count"});
  m.push_back({"lsm.write.queue_wait_pct",
               Pct(pp.write_queue_wait_time, put_span_us), "%"});
  m.push_back({"lsm.write.wal_pct", Pct(pp.wal_write_time, put_span_us), "%"});
  m.push_back(
      {"lsm.write.wal_sync_pct", Pct(pp.wal_sync_time, put_span_us), "%"});
  m.push_back({"lsm.write.memtable_pct",
               Pct(pp.write_memtable_time, put_span_us), "%"});
  m.push_back(
      {"lsm.write.stall_pct", Pct(pp.write_stall_time, put_span_us), "%"});
  m.push_back({"lsm.write.group_size",
               Ratio(T(rocksmash::WRITE_GROUP_SIZE), T(rocksmash::WRITE_GROUPS)),
               "count"});
  m.push_back({"lsm.wal.syncs_per_kput",
               Ratio(p.env.Total(kWal).syncs, puts / 1000), "count"});
  m.push_back({"lsm.flush.count", T(rocksmash::FLUSH_COUNT), "count"});
  m.push_back({"lsm.compaction.count", T(rocksmash::COMPACTION_COUNT), "count"});
  m.push_back({"lsm.compaction.mib_written",
               T(rocksmash::COMPACTION_LANE_BYTES_WRITTEN) / kMiB, "MiB"});
  m.push_back({"lsm.write_amp",
               Ratio(static_cast<double>(p.env.Total(kSst).write_bytes +
                                         p.env.Total(kWal).write_bytes),
                     puts * (kKeySize + kValueSize)),
               "ratio"});

  // table
  m.push_back({"table.sst_reads_per_get",
               Ratio(p.breakdown[kGet].children.env_reads[kSst], gets),
               "count"});
  m.push_back({"table.iter.next_per_scan", Ratio(ps.iter_next_count, scans),
               "count"});
  m.push_back({"table.iter.fast_path_ratio",
               Ratio(ps.iter_fast_path_count, ps.iter_next_count), "ratio"});

  // util.cache
  m.push_back({"cache.block.hit_ratio",
               Ratio(perf.block_cache_hit_count,
                     perf.block_cache_hit_count + perf.block_read_count),
               "ratio"});
  m.push_back(
      {"cache.block.misses_per_op", Ratio(perf.block_read_count, ops), "count"});

  // mash
  m.push_back({"mash.pcache.hits_per_get",
               Ratio(pg.persistent_cache_hit_count, gets), "count"});
  m.push_back({"mash.pcache.opens_per_hit",
               Ratio(p.env.by_thread[0][kPcache].opens,
                     perf.persistent_cache_hit_count),
               "count"});
  m.push_back({"mash.pcache.hit_ratio",
               Ratio(T(rocksmash::PERSISTENT_CACHE_HIT),
                     T(rocksmash::PERSISTENT_CACHE_HIT) +
                         T(rocksmash::PERSISTENT_CACHE_MISS)),
               "ratio"});
  m.push_back({"mash.pcache.admits_per_kop",
               Ratio(T(rocksmash::PERSISTENT_CACHE_ADMIT), kops), "count"});
  m.push_back({"mash.pcache.evicted_mib",
               T(rocksmash::PERSISTENT_CACHE_EVICTED_BYTES) / kMiB, "MiB"});
  m.push_back({"mash.metadata.hit_ratio",
               Ratio(T(rocksmash::PERSISTENT_CACHE_METADATA_HIT),
                     T(rocksmash::PERSISTENT_CACHE_METADATA_HIT) +
                         T(rocksmash::PERSISTENT_CACHE_METADATA_MISS)),
               "ratio"});
  m.push_back({"mash.scan.readahead_hit_ratio",
               Ratio(ps.scan_prefetch_hit_count, ps.block_read_count),
               "ratio"});
  m.push_back({"mash.scan.prefetch_kib_per_scan",
               Ratio(T(rocksmash::SCAN_READAHEAD_BYTES) / 1024, scans), "KiB"});
  m.push_back(
      {"mash.upload.count", T(rocksmash::CLOUD_UPLOADS_COMPLETED), "count"});
  m.push_back({"mash.pcache.invalidations",
               T(rocksmash::PERSISTENT_CACHE_INVALIDATIONS), "count"});
  m.push_back({"mash.pcache.gc_mib_rewritten",
               T(rocksmash::PERSISTENT_CACHE_GC_BYTES_REWRITTEN) / kMiB, "MiB"});
  m.push_back({"mash.recovery.replay_ms",
               recovery.stats.replay_micros / 1000.0, "ms"});
  m.push_back({"mash.recovery.records",
               static_cast<double>(recovery.stats.records_replayed), "count"});

  // cloud
  const double cloud_gets = static_cast<double>(p.cloud.TotalGets());
  m.push_back({"cloud.get.per_kop", Ratio(cloud_gets, kops), "count"});
  m.push_back({"cloud.get.fg_per_kop", Ratio(p.cloud.gets[0], kops), "count"});
  m.push_back({"cloud.get.bg_per_kop", Ratio(p.cloud.gets[1], kops), "count"});
  m.push_back({"cloud.get.kib_per_get",
               Ratio((p.cloud.get_bytes[0] + p.cloud.get_bytes[1]) / 1024.0,
                     cloud_gets),
               "KiB"});
  m.push_back({"cloud.get.fg_kib_per_get",
               Ratio(p.cloud.get_bytes[0] / 1024.0, p.cloud.gets[0]), "KiB"});
  m.push_back({"cloud.put.per_kop", Ratio(p.cloud.puts, kops), "count"});
  m.push_back({"cloud.put.mib", p.cloud.put_bytes / kMiB, "MiB"});

  // env, per file class, all threads
  for (int c = 0; c < kOther; c++) {
    const EnvCounts::Class e = p.env.Total(c);
    const std::string prefix = std::string("env.") + FileClassName(c);
    m.push_back({prefix + ".opens_per_kop", Ratio(e.opens, kops), "count"});
    m.push_back({prefix + ".reads_per_kop", Ratio(e.reads, kops), "count"});
    m.push_back(
        {prefix + ".read_kib_per_op", Ratio(e.read_bytes / 1024.0, ops), "KiB"});
    m.push_back({prefix + ".writes_per_kop", Ratio(e.writes, kops), "count"});
    m.push_back({prefix + ".write_kib_per_op",
                 Ratio(e.write_bytes / 1024.0, ops), "KiB"});
    m.push_back({prefix + ".syncs_per_kop", Ratio(e.syncs, kops), "count"});
  }
  return m;
}

double PeakRssMiB() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// $ per million ops at the measured rate, if sustained for the month the $
// figure covers: storage for both tiers plus the phase's requests.
double UsdPerMops(const Rig& rig, const PhaseResult& p, double local_bytes) {
  rocksmash::CostMeter meter;
  const rocksmash::CostBreakdown cost =
      meter.MonthlyCost(rig.cloud->BytesStored(),
                        static_cast<uint64_t>(local_bytes),
                        p.cloud.AsOpCounters(), p.elapsed_s / 3600.0);
  const double mops_per_month = p.OpsPerSecond() * 3600.0 * 730.0 / 1e6;
  return Ratio(cost.total(), mops_per_month);
}

// Runs one full set-up on a fresh store in a child process and returns its
// time. Extra set-ups run there so that their memory, and the allocator
// state they leave, never reach the measured process's peak RSS. Must be
// called while this process has no other threads.
double SetupInChild(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) Die("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) Die("fork failed");
  if (pid == 0) {
    // Die with the parent, so a killed run leaves no process behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() == 1) _exit(4);
    close(fds[0]);
    double total = 0;
    {
      std::unique_ptr<Rig> rig = NewRig(args, /*with_statistics=*/false);
      total = LoadSettleWarm(rig.get(), args.seed).total_s;
    }
    const bool sent = write(fds[1], &total, sizeof(total)) == sizeof(total);
    _exit(sent ? 0 : 3);
  }
  close(fds[1]);
  double total = 0;
  const bool got = read(fds[0], &total, sizeof(total)) == sizeof(total);
  close(fds[0]);
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || !got) {
    Die("set-up in child process failed");
  }
  return total;
}

int Run(const Args& args) {
  std::printf("workload %s, seed %" PRIu64 ", %g s timed, trace %d\n",
              args.workload->name, args.seed, args.seconds, args.trace ? 1 : 0);

  if (!args.trace) {
    // setup_s is the median of several full set-ups; the last one, in this
    // process, is the store the timed phase measures.
    std::vector<double> setup_s;
    for (int i = 0; i + 1 < kSetupsPerRun; i++) {
      setup_s.push_back(SetupInChild(args));
      std::printf("setup %d (child process): %.3f s\n", i, setup_s.back());
    }
    std::unique_ptr<Rig> rig = NewRig(args, /*with_statistics=*/false);
    const SetupTimes t = LoadSettleWarm(rig.get(), args.seed);
    setup_s.push_back(t.total_s);
    std::printf("setup %d: %.3f s (load %.3f, settle %.3f, warm %.3f with "
                "%" PRIu64 " cloud GETs)\n",
                kSetupsPerRun - 1, t.total_s, t.load_s, t.settle_s, t.warm_s,
                t.warm_cloud_gets);
    PrintProvenance(args, rig->options);

    const std::unique_ptr<PhaseResult> phase = RunPhase(rig.get(), args);
    const PhaseResult& p = *phase;
    const double peak_rss_mib = PeakRssMiB();
    PrintSteadiness(p, args.steady_bound);
    PrintLatencies(p);
    const double cloud_gets_per_kop =
        Ratio(static_cast<double>(p.cloud.TotalGets()), p.ops / 1000.0);
    std::printf("ops %" PRIu64 " in %.3f s; cloud GETs %" PRIu64
                " (%.3f per kop; %" PRIu64 " on client threads)\n",
                p.ops, p.elapsed_s, p.cloud.TotalGets(), cloud_gets_per_kop,
                p.cloud.gets[0]);

    double local_bytes = 0;
    for (uint64_t b : p.local_bytes) local_bytes += static_cast<double>(b);
    local_bytes = Ratio(local_bytes, static_cast<double>(p.local_bytes.size()));
    const double usd = UsdPerMops(*rig, p, local_bytes);
    Settle(rig->store.get());
    std::vector<double> recovery_s;
    for (int rep = 0; rep < kRecoveryReps; rep++) {
      const RecoveryResult r = MeasureRecovery(rig.get(), args, rep);
      recovery_s.push_back(r.seconds);
      std::printf("recovery %d: %.4f s (replayed %" PRIu64 " records in %.3f "
                  "ms)\n",
                  rep, r.seconds, r.stats.records_replayed,
                  r.stats.replay_micros / 1000.0);
    }
    const uint64_t bad = VerifyAll(rig.get());
    std::printf("final verification scan: %" PRIu64 " bad rows\n", bad);
    std::printf("failed_ops_ratio %.6g (%" PRIu64 " of %" PRIu64 ")\n",
                Ratio(rig->failed, rig->attempted), rig->failed,
                rig->attempted);

    std::vector<Metric> m;
    m.push_back({"setup_s", Median(setup_s), "s"});
    m.push_back({"ops_per_s", p.OpsPerSecond(), "ops/s"});
    m.push_back({"op_p50_us", OpPercentileUs(p, 50), "us"});
    m.push_back({"op_p99_us", OpPercentileUs(p, 99), "us"});
    m.push_back({"usd_per_mops", usd, "usd"});
    m.push_back({"local_bytes_per_user_byte",
                 local_bytes / kUserBytes, "ratio"});
    m.push_back({"recovery_s", Median(recovery_s), "s"});
    m.push_back({"peak_rss_mib", peak_rss_mib, "MiB"});
    rig->store.reset();
    PrintResult(*rig, m);
    return rig->failed == 0 ? 0 : 1;
  }

  // Traced run: first the same workload untraced on its own store for a
  // quarter of the time, for the tracing overhead; then the traced run with
  // Statistics and PerfContext.
  double untraced_ops_per_s = 0;
  {
    std::unique_ptr<Rig> plain = NewRig(args, /*with_statistics=*/false);
    LoadSettleWarm(plain.get(), args.seed);
    Args quiet = args;
    quiet.trace = false;
    quiet.seconds = std::max(1.0, args.seconds / 4);
    untraced_ops_per_s = RunPhase(plain.get(), quiet)->OpsPerSecond();
    if (plain->failed != 0) Die("untraced reference phase failed");
  }
  std::unique_ptr<Rig> rig = NewRig(args, /*with_statistics=*/true);
  const SetupTimes setup = LoadSettleWarm(rig.get(), args.seed);
  PrintProvenance(args, rig->options);
  const std::unique_ptr<PhaseResult> phase = RunPhase(rig.get(), args);
  const PhaseResult& p = *phase;
  const double half_gap = PrintSteadiness(p, args.steady_bound);
  PrintLatencies(p);
  PrintBreakdown(p);
  std::printf("tracing overhead: untraced %.0f ops/s, traced %.0f ops/s\n",
              untraced_ops_per_s, p.OpsPerSecond());
  Settle(rig->store.get());
  const RecoveryResult recovery = MeasureRecovery(rig.get(), args, 0);
  const uint64_t bad = VerifyAll(rig.get());
  std::printf("final verification scan: %" PRIu64 " bad rows\n", bad);
  WriteTrace(args);
  const std::vector<Metric> m = PerLayerMetrics(
      p, setup, recovery, untraced_ops_per_s, half_gap);
  rig->store.reset();
  PrintResult(*rig, m);
  return rig->failed == 0 ? 0 : 1;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (v == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Die("unknown workload " + v);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--git-sha") {
      a.git_sha = v;
    } else if (flag == "--steady-bound") {
      a.steady_bound = std::strtod(v.c_str(), nullptr);
    } else {
      Die("unknown flag " + flag);
    }
  }
  if ((argc - 1) % 2 != 0) Die("flags take one value each");
  if (a.workload == nullptr) Die("--workload is required");
  if (!(a.seconds > 0 && a.seconds <= 600)) Die("--seconds out of range");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
