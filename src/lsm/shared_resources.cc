#include "lsm/shared_resources.h"

#include <algorithm>

#include "util/thread_pool.h"

namespace rocksmash {

SharedResourcesOptions SharedResourcesForShards(int num_shards,
                                                int flush_threads,
                                                int compaction_threads,
                                                int upload_threads) {
  SharedResourcesOptions sr;
  sr.flush_threads = std::max(flush_threads, std::min(num_shards, 4));
  sr.compaction_threads = std::max(compaction_threads, std::min(num_shards, 4));
  sr.upload_threads = std::max(upload_threads, std::min(num_shards, 2));
  return sr;
}

// Keep the field checks here in sync with the SharedResourcesOptions struct
// and the DESIGN.md "Sharding & shared resources" resource table
// (tools/lint.py enforces this).
Status ValidateSharedResourcesOptions(const SharedResourcesOptions& opts) {
  if (opts.block_cache_bytes < 1) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::block_cache_bytes", "must be >= 1");
  }
  if (opts.block_cache_shard_bits < 0 || opts.block_cache_shard_bits > 8) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::block_cache_shard_bits",
        "must be in [0, 8]");
  }
  if (opts.flush_threads < 1) {
    return Status::InvalidArgument("SharedResourcesOptions::flush_threads",
                                   "must be >= 1");
  }
  if (opts.compaction_threads < 1) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::compaction_threads", "must be >= 1");
  }
  if (opts.upload_threads < 1) {
    return Status::InvalidArgument("SharedResourcesOptions::upload_threads",
                                   "must be >= 1");
  }
  if (opts.cloud_fetch_threads < 1) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::cloud_fetch_threads", "must be >= 1");
  }
  // statistics: any pointer (including null) is valid; listed so the lint
  // rule sees every field acknowledged by the validator.
  (void)opts.statistics;
  return Status::OK();
}

SharedResources::SharedResources(const SharedResourcesOptions& opts)
    : options_(opts) {
  block_cache_ = NewLRUCache(opts.block_cache_bytes,
                             opts.block_cache_shard_bits, opts.statistics);
  flush_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(opts.flush_threads), "shared-flush");
  compaction_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(opts.compaction_threads), "shared-compact");
  upload_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(opts.upload_threads), "shared-upload");
  fetch_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(opts.cloud_fetch_threads), "shared-fetch");
}

SharedResources::~SharedResources() {
  // Every DB shard and storage must be closed before the shared pools die;
  // Shutdown here only drains stragglers (tasks check their own shutdown
  // flags and return quickly).
  if (flush_pool_ != nullptr) flush_pool_->Shutdown();
  if (compaction_pool_ != nullptr) compaction_pool_->Shutdown();
  if (upload_pool_ != nullptr) upload_pool_->Shutdown();
  if (fetch_pool_ != nullptr) fetch_pool_->Shutdown();
}

Status SharedResources::Create(const SharedResourcesOptions& opts,
                               std::shared_ptr<SharedResources>* out) {
  out->reset();
  Status s = ValidateSharedResourcesOptions(opts);
  if (!s.ok()) return s;
  out->reset(new SharedResources(opts));
  return Status::OK();
}

}  // namespace rocksmash
