// SharedResources: the one owner of the process-wide resources an engine
// draws from — the RAM block cache, the flush and compaction lanes, and the
// cloud upload and fetch pools — and of the Statistics they report to.
//
// Every DBImpl and TieredTableStorage takes its cache and pools from a
// SharedResources handle and owns none of its own, so N shards of one
// store share one memory budget and one thread budget instead of
// multiplying both by N. OpenKVStore builds one per store and hands it to
// every layer; a DB::Open or TieredTableStorage without one creates a
// private instance with the default options, which dies with it. No other
// file in src/ builds a long-lived ThreadPool (tools/lint.py
// one-resource-owner). See DESIGN.md "Sharding & shared resources".
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/cache.h"
#include "util/status.h"

namespace rocksmash {

class Statistics;
class ThreadPool;

// Knobs for the shared pools. Kept in sync with
// ValidateSharedResourcesOptions (shared_resources.cc) and the resource
// table in DESIGN.md "Sharding & shared resources" by tools/lint.py.
struct SharedResourcesOptions {
  // RAM block cache shared by every shard. The capacity is a whole-process
  // budget: shards draw from one cache, they do not each get this much.
  size_t block_cache_bytes = 8 * 1024 * 1024;

  // log2 of the block-cache stripe count. 4 (16 stripes) keeps N shards
  // from serializing on one cache mutex; contended acquisitions are counted
  // in shard.cache.stripe.contention. Must be in [0, 8].
  int block_cache_shard_bits = 4;

  // Shared background lanes: flushes and compactions from every shard queue
  // on these pools (FIFO per lane; see DESIGN.md for the fairness
  // discussion). Values < 1 are invalid.
  int flush_threads = 1;
  int compaction_threads = 1;

  // Cloud I/O pools shared by every shard's tiered storage. upload_threads
  // drains the async-upload pipeline; cloud_fetch_threads serves batched
  // reads and scan readahead. Values < 1 are invalid.
  int upload_threads = 2;
  int cloud_fetch_threads = 8;

  // One Statistics object for the whole shard group (tickers/histograms
  // from every shard accumulate here). Not owned; may be null.
  Statistics* statistics = nullptr;
};

// The one sizing rule for the pools of a num_shards-shard group, from the
// per-store lane knobs: the flush and compaction lanes get at least
// min(num_shards, 4) threads and the upload pool at least
// min(num_shards, 2), so one shard keeps exactly the knobs and N shards do
// not queue behind one lane. The other fields keep their defaults.
SharedResourcesOptions SharedResourcesForShards(int num_shards,
                                                int flush_threads,
                                                int compaction_threads,
                                                int upload_threads);

// The one validation path for SharedResourcesOptions. Returns
// InvalidArgument naming the offending field.
Status ValidateSharedResourcesOptions(const SharedResourcesOptions& options);

class SharedResources {
 public:
  // Validates `options` and builds the pools. On error *out stays null.
  static Status Create(const SharedResourcesOptions& options,
                       std::shared_ptr<SharedResources>* out);

  ~SharedResources();

  SharedResources(const SharedResources&) = delete;
  SharedResources& operator=(const SharedResources&) = delete;

  Cache* block_cache() const { return block_cache_.get(); }
  ThreadPool* flush_pool() const { return flush_pool_.get(); }
  ThreadPool* compaction_pool() const { return compaction_pool_.get(); }
  ThreadPool* upload_pool() const { return upload_pool_.get(); }
  ThreadPool* cloud_fetch_pool() const { return fetch_pool_.get(); }
  Statistics* statistics() const { return options_.statistics; }

  const SharedResourcesOptions& options() const { return options_; }

 private:
  explicit SharedResources(const SharedResourcesOptions& options);

  SharedResourcesOptions options_;
  std::unique_ptr<Cache> block_cache_;
  std::unique_ptr<ThreadPool> flush_pool_;
  std::unique_ptr<ThreadPool> compaction_pool_;
  std::unique_ptr<ThreadPool> upload_pool_;
  std::unique_ptr<ThreadPool> fetch_pool_;
};

}  // namespace rocksmash
