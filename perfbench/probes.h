// Measurement probes the benchmark wraps around the store from outside:
//
//   CountingEnv          Env decorator; classifies every file by name and
//                        counts opens, reads, writes and syncs per class.
//   CountingObjectStore  ObjectStore decorator; counts requests and bytes,
//                        split by whether a client thread or a pool thread
//                        issued them.
//   OpScope              a client-op span; while one is active on a thread,
//                        the decorators charge their time to it.
//
// Counting is always on and costs one relaxed atomic add per call. Timing
// and span recording run only while tracing is enabled (SetTracing), so the
// untraced run reads no clocks inside the store's I/O path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cloud/object_store.h"
#include "env/env.h"

namespace perfbench {

// File classes, by name: *.sst/*.tmp tables, *.log/ewal-* WAL segments,
// MANIFEST-*/CURRENT, persistent-cache *.cache extents, metadata *.meta.
enum FileClass : int { kSst = 0, kWal, kManifest, kPcache, kMeta, kOther };
inline constexpr int kNumFileClasses = 6;
const char* FileClassName(int c);
FileClass ClassifyFile(const std::string& path);

// Marks the calling thread as a benchmark client; every other thread is a
// pool or background thread of the store.
void MarkClientThread();

// Tracing switch; off at start.
void SetTracing(bool on);
bool TracingOn();

uint64_t NowNanos();

// The counters kept per file class; the *_ns timers run only when traced.
#define ENV_CLASS_FIELDS(X)                                               \
  X(opens) X(reads) X(read_bytes) X(writes) X(write_bytes) X(syncs)       \
  X(read_ns) X(write_ns) X(sync_ns)

// Per-class Env counters; index [0] = client threads, [1] = other threads.
struct EnvCounts {
  struct Class {
#define DECLARE_FIELD(f) uint64_t f = 0;
    ENV_CLASS_FIELDS(DECLARE_FIELD)
#undef DECLARE_FIELD
  };
  std::array<std::array<Class, kNumFileClasses>, 2> by_thread;

  Class Total(int file_class) const;
  EnvCounts operator-(const EnvCounts& base) const;
};

struct CloudCounts {
  // [0] = issued on client threads, [1] = on pool/background threads.
  std::array<uint64_t, 2> gets{}, get_bytes{}, get_ns{};
  uint64_t puts = 0, put_bytes = 0, heads = 0, deletes = 0, lists = 0;

  uint64_t TotalGets() const { return gets[0] + gets[1]; }
  rocksmash::ObjectStore::OpCounters AsOpCounters() const;
  CloudCounts operator-(const CloudCounts& base) const;
};

class CountingEnv;
class CountingObjectStore;

std::unique_ptr<CountingEnv> NewCountingEnv(rocksmash::Env* base);
std::unique_ptr<CountingObjectStore> NewCountingObjectStore(
    rocksmash::ObjectStore* base);

class CountingEnv : public rocksmash::Env {
 public:
  virtual EnvCounts Snapshot() const = 0;
};

class CountingObjectStore : public rocksmash::ObjectStore {
 public:
  virtual CloudCounts Snapshot() const = 0;
};

// Sums of sizes of every file under `dir` (recursively).
uint64_t DirBytes(rocksmash::Env* env, const std::string& dir);

// --- Client-op spans -------------------------------------------------------

enum OpKind : int { kGet = 0, kScan, kPut };
inline constexpr int kNumOpKinds = 3;
const char* OpKindName(int k);

// Time one client operation spent in the store's children, by layer.
struct OpChildren {
  std::array<uint64_t, kNumFileClasses> env_ns{};
  std::array<uint64_t, kNumFileClasses> env_reads{};
  uint64_t cloud_ns = 0;
};

// Per-op-kind sums over many traced ops.
struct OpBreakdown {
  uint64_t ops = 0;
  uint64_t span_ns = 0;
  uint64_t self_ns = 0;
  uint64_t negative_self = 0;  // ops whose children outlasted the op span
  OpChildren children;

  void Add(const OpBreakdown& other);
};

// RAII client-op span: with tracing on, records the span and attributes the
// Env and cloud time the decorators see on this thread to it.
class OpScope {
 public:
  OpScope(OpKind kind, OpBreakdown* sink);
  ~OpScope();

  OpScope(const OpScope&) = delete;
  OpScope& operator=(const OpScope&) = delete;

 private:
  OpKind kind_;
  OpBreakdown* sink_;
  uint64_t start_ns_ = 0;  // 0 = tracing was off at construction.
  OpChildren children_;
};

// Raw spans kept in memory (bounded) and written as a Chrome trace at exit.
struct SpanRecord {
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t op_id;  // client-op span active on the thread; 0 = background
  uint32_t thread;
  uint16_t name;  // index into SpanNames()
};
const std::vector<std::string>& SpanNames();
void ClearSpans(size_t cap);
std::vector<SpanRecord> CollectSpans();
uint64_t DroppedSpans();

}  // namespace perfbench
