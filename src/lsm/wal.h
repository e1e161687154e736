// Wal: the engine's write-ahead log, RocksMash's extended WAL (eWAL).
//
// A logical log `number` is striped over K segment files
// (ewal-{number}-{k}.log, see lsm/filename.h). Each AddRecord goes entirely
// to one segment (round-robin over record count), so a record is never
// split across segments; Sync() makes every dirty segment durable before
// returning (fsync epoch), preserving "acked writes are durable". With
// K = 1 this is the classic single-file log.
//
// Recovery replays the segments of a log in parallel, one lane per segment
// file. Records are applied out of global order across segments — safe,
// because every record (a serialized WriteBatch) carries its own sequence
// numbers and the LSM applies entries with their original sequences; the
// merged result is identical to sequential replay. Unsynced tail records
// may survive in one segment but not another; this yields
// RocksDB-kPointInTime-like semantics per segment and is the documented
// eWAL trade-off for near-linear recovery speedup.
//
// A log in the legacy single-file format ({number}.log, read-only) is one
// more replay lane on shard 0, so a store written before the eWAL became
// the only log still replays everything on disk.
//
// Thread-safety: externally synchronized — the DB's writer protocol
// guarantees a single thread appends/rotates at a time (the front writer of
// the write group, with the DB mutex released), so the Wal holds no locks
// of its own outside Replay.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/slice.h"
#include "util/status.h"

namespace rocksmash {

class Env;

class Wal {
 public:
  // `segments` < 1 is treated as 1.
  Wal(Env* env, std::string dbname, int segments);
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Start writing log `number` (closes any previous log).
  Status NewLog(uint64_t number);

  // Append one record (a serialized WriteBatch) to the current log.
  Status AddRecord(const Slice& record);

  // Make all records added so far durable.
  Status Sync();

  Status CloseLog();

  // Log numbers present on disk in either format, ascending.
  Status ListLogs(std::vector<uint64_t>* numbers);

  // Per-lane replay telemetry. The critical path max(shard_micros) models
  // the replay time with one core per lane, which the wall clock shows
  // only on a host with at least that many cores.
  struct ReplayTelemetry {
    std::vector<uint64_t> shard_micros;
  };

  // Replay log `number`: apply(record, shard) for every intact record of
  // every file of the log. `shard` is in [0, MaxShards()). Lanes run on up
  // to min(files, hardware_concurrency) threads; apply calls for one shard
  // are serialized, so apply must only be safe for *distinct* shards in
  // parallel.
  Status Replay(
      uint64_t number,
      const std::function<Status(const Slice& record, int shard)>& apply,
      ReplayTelemetry* telemetry = nullptr);

  int MaxShards() const { return segments_; }

 private:
  struct Segment;
  // One file of a log on disk: an eWAL segment or a legacy single file.
  struct LogFile {
    uint64_t number;
    std::string path;
    int shard;
  };

  // The one directory scan behind ListLogs and Replay.
  Status ScanLogFiles(std::vector<LogFile>* files);

  Env* const env_;
  const std::string dbname_;
  const int segments_;
  std::vector<Segment> open_segments_;  // Of the log being written.
  int next_segment_ = 0;
};

}  // namespace rocksmash
