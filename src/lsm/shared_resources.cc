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
Status ValidateSharedResourcesOptions(const SharedResourcesOptions& options) {
  if (options.block_cache_bytes < 1) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::block_cache_bytes", "must be >= 1");
  }
  if (options.block_cache_shard_bits < 0 ||
      options.block_cache_shard_bits > 8) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::block_cache_shard_bits",
        "must be in [0, 8]");
  }
  if (options.flush_threads < 1) {
    return Status::InvalidArgument("SharedResourcesOptions::flush_threads",
                                   "must be >= 1");
  }
  if (options.compaction_threads < 1) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::compaction_threads", "must be >= 1");
  }
  if (options.upload_threads < 1) {
    return Status::InvalidArgument("SharedResourcesOptions::upload_threads",
                                   "must be >= 1");
  }
  if (options.cloud_fetch_threads < 1) {
    return Status::InvalidArgument(
        "SharedResourcesOptions::cloud_fetch_threads", "must be >= 1");
  }
  // statistics: any pointer (including null) is valid; listed so the lint
  // rule sees every field acknowledged by the validator.
  (void)options.statistics;
  return Status::OK();
}

SharedResources::SharedResources(const SharedResourcesOptions& options)
    : options_(options) {
  block_cache_ =
      NewLRUCache(options_.block_cache_bytes, options_.block_cache_shard_bits,
                  options_.statistics);
  flush_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.flush_threads), "shared-flush");
  compaction_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.compaction_threads), "shared-compact");
  upload_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.upload_threads), "shared-upload");
  fetch_pool_ = std::make_unique<ThreadPool>(
      static_cast<size_t>(options_.cloud_fetch_threads), "shared-fetch");
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

Status SharedResources::Create(const SharedResourcesOptions& options,
                               std::shared_ptr<SharedResources>* out) {
  out->reset();
  Status s = ValidateSharedResourcesOptions(options);
  if (!s.ok()) return s;
  out->reset(new SharedResources(options));
  return Status::OK();
}

}  // namespace rocksmash
