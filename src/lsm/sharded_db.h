// ShardedDB: a DB-implementing router that hash-partitions the user key
// space over N independent engine shards (each a full DBImpl with its own
// directory, WAL, memtables, version set, and blob files), while the
// expensive process-wide resources — RAM block cache, cloud fetch/upload
// pools, flush/compaction lanes, Statistics — come from one SharedResources
// object every shard holds (see lsm/shared_resources.h and DESIGN.md
// "Sharding & shared resources"). A kRocksMash store also gives all its
// shards one persistent cache.
//
// Semantics:
//   - Routing: shard = fastrange(upper 32 bits of Hash64(key, seed), N).
//     The mapping is a pure function of the key bytes and N, so reopening
//     with the same N finds every key; reopening with a different N is
//     rejected via the SHARDS marker file.
//   - Sequence domains are PER SHARD: each shard runs its own WAL and
//     sequence counter. A multi-shard WriteBatch is split into per-shard
//     sub-batches, each atomic and durable within its shard, but there is
//     no cross-shard atomicity: a crash can persist the sub-batch on shard
//     A and not on shard B. Single-shard batches (including every Put and
//     Delete) keep full atomicity.
//   - Snapshots are composites of per-shard snapshots taken in shard order;
//     each shard's view is consistent, but the views are not taken at one
//     global instant (there is no global sequence to agree on).
//   - Iterators merge the per-shard iterators through the winner-tree
//     merging iterator; shards partition the key space, so the merge sees
//     disjoint key sets and yields globally sorted output.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "lsm/db.h"
#include "util/mutexlock.h"

namespace rocksmash {

class Statistics;

class ShardedDB : public DB {
 public:
  // One entry per shard: the caller (OpenKVStore) builds each shard's
  // DBOptions with its per-shard plumbing (tiered storage, eWAL, cloud
  // prefix) and its directory.
  struct ShardSpec {
    DBOptions options;
    std::string path;
  };

  // Opens one engine shard per spec (in order; spec i is shard i). Every
  // spec must carry the same non-null shared_resources handle and resolve
  // to the same Statistics (its own, else the shared one), or the call
  // returns InvalidArgument before opening any shard: one cache and thread
  // budget, and one set of tickers, for the group. On any shard failing to
  // open, already-opened shards are closed and *dbptr stays null. Spec
  // paths/directories are the caller's responsibility.
  static Status Open(const std::vector<ShardSpec>& specs,
                     std::unique_ptr<DB>* dbptr);

  // The routing function: fastrange over the upper 32 hash bits, so the
  // low bits stay independent for memtable/filter/cache hashing.
  static uint32_t ShardOfKey(const Slice& key, uint32_t num_shards);

  // Reads the `name/SHARDS` marker written by CheckShardMarker. NotFound
  // when the store was never opened sharded.
  static Status ReadShardMarker(Env* env, const std::string& name,
                                int* num_shards);

  // Checks the shard count persisted under `name` against num_shards: the
  // routing hash is a function of the count, so reopening with another one
  // would strand keys. InvalidArgument on a mismatch, counting an unsharded
  // store at `name` as one. With no marker yet, writes one if `create` is
  // set and returns NotFound otherwise.
  static Status CheckShardMarker(Env* env, const std::string& name,
                                 int num_shards, bool create);

  ~ShardedDB() override;

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             PinnableSlice* value) override;
  void MultiGet(const ReadOptions& options, const std::vector<Slice>& keys,
                std::vector<PinnableSlice>* values,
                std::vector<Status>* statuses) override;
  std::unique_ptr<Iterator> NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  bool GetProperty(const Slice& property,
                   std::map<std::string, std::string>* value) override;
  Status CompactRange(const Slice* begin, const Slice* end) override;
  Status Close() override;
  Status FlushMemTable() override;
  void WaitForCompaction() override;
  RecoveryStats GetRecoveryStats() const override;

  size_t num_shards() const { return shards_.size(); }
  DB* shard(size_t i) const { return shards_[i].get(); }

 private:
  explicit ShardedDB(std::vector<ShardSpec> specs,
                     std::vector<std::unique_ptr<DB>> shards);

  uint32_t ShardOf(const Slice& key) const {
    return ShardOfKey(key, static_cast<uint32_t>(shards_.size()));
  }
  // Rewrites options.snapshot (a composite handed out by GetSnapshot) to
  // shard i's member snapshot; passes everything else through.
  ReadOptions OptionsForShard(const ReadOptions& options, size_t i) const;

  // Immutable after construction (no lock needed): the shards and the
  // spec options they were opened with.
  std::vector<ShardSpec> specs_;
  std::vector<std::unique_ptr<DB>> shards_;
  // The group's one Statistics (may be null): the router's own tickers
  // (shard.write.batches.split, shard.multiget.fanout) land here.
  Statistics* const statistics_;

  // Lock order: before every shard's DBImpl::mutex_. Guards only the
  // idempotent-close state below; Close() holds it across the shard
  // broadcast so concurrent closers observe the final status. No shard
  // code ever calls back into ShardedDB, so the reverse order cannot occur.
  Mutex mu_;
  bool closed_ GUARDED_BY(mu_) = false;
  Status close_status_ GUARDED_BY(mu_);
};

}  // namespace rocksmash
