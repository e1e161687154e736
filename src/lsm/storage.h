// TableStorage: where installed SSTables live. The engine always *builds*
// tables into local staging files (fast sequential writes); Install() then
// decides the file's home:
//   - LocalTableStorage  : staging file is the final local file.
//   - TieredTableStorage : (mash/) shallow levels stay local, deep levels
//                          upload to the object store; reads of cloud files
//                          go through the LSM-aware persistent cache.
//   - Cloud baselines    : (baselines/) everything uploads.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "table/format.h"
#include "util/status.h"

namespace rocksmash {

class Env;
class WritableFile;

struct TableStorageStats {
  uint64_t local_bytes = 0;
  uint64_t cloud_bytes = 0;
  uint64_t local_files = 0;
  uint64_t cloud_files = 0;
  uint64_t uploads = 0;
  uint64_t downloads = 0;
  // Files installed at a cloud level whose upload is still in flight (they
  // keep serving reads from the local staging copy meanwhile).
  uint64_t pending_uploads = 0;
  // The whole-file cache of the CloudSstCache baseline (that storage only):
  // table opens it served, opens that downloaded the file, files evicted.
  uint64_t file_cache_hits = 0;
  uint64_t file_cache_misses = 0;
  uint64_t file_cache_evictions = 0;
};

class TableStorage {
 public:
  virtual ~TableStorage() = default;

  // Writable staging file for building table `number`. Always local.
  virtual Status NewStagingFile(uint64_t number,
                                std::unique_ptr<WritableFile>* file) = 0;

  // Install the fully built + synced staging file as table `number` at
  // `level`. `metadata_offset` is the file offset where the metadata region
  // (filter+index+footer) begins — the tiered storage pins exactly that tail
  // locally for cloud files.
  virtual Status Install(uint64_t number, int level, uint64_t file_size,
                         uint64_t metadata_offset) = 0;

  // A compaction trivially moved the file to `to_level` (no rewrite). Gives
  // the storage a chance to migrate the file between tiers.
  virtual Status OnLevelChange(uint64_t number, int to_level) {
    (void)number;
    (void)to_level;
    return Status::OK();
  }

  // Open table `number` for reads.
  virtual Status OpenTable(uint64_t number,
                           std::unique_ptr<BlockSource>* source,
                           uint64_t* file_size) = 0;

  // The table is obsolete: remove it from every tier and cache.
  virtual Status Remove(uint64_t number) = 0;

  // Numbers of all table files this storage knows about (any tier). Drives
  // obsolete-file GC: the engine removes listed tables that are no longer
  // live in any version.
  virtual Status ListTables(std::vector<uint64_t>* numbers) = 0;

  virtual bool IsLocal(uint64_t number) const = 0;
  virtual TableStorageStats GetStats() const = 0;

  // Block until every asynchronously enqueued upload has reached a terminal
  // state (durably uploaded, cancelled by Remove, or parked after exhausting
  // retries). No-op for storages that install synchronously.
  virtual void WaitForPendingUploads() {}
};

// Plain local storage rooted in the DB directory (also the LocalOnly
// baseline).
std::unique_ptr<TableStorage> NewLocalTableStorage(Env* env,
                                                   const std::string& dbname);

}  // namespace rocksmash
