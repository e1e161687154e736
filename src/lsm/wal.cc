#include "lsm/wal.h"

#include <algorithm>
#include <memory>
#include <set>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/log_reader.h"
#include "lsm/log_writer.h"
#include "util/clock.h"
#include "util/mutexlock.h"
#include "util/thread_pool.h"

namespace rocksmash {

struct Wal::Segment {
  std::unique_ptr<WritableFile> file;
  std::unique_ptr<log::Writer> writer;
  bool dirty = false;
};

Wal::Wal(Env* env, std::string dbname, int segments)
    : env_(env), dbname_(std::move(dbname)), segments_(std::max(1, segments)) {}

Wal::~Wal() = default;

Status Wal::NewLog(uint64_t number) {
  Status s = CloseLog();
  if (!s.ok()) return s;
  open_segments_.resize(segments_);
  for (int k = 0; k < segments_; k++) {
    Segment& seg = open_segments_[k];
    s = env_->NewWritableFile(EWalFileName(dbname_, number, k), &seg.file);
    if (!s.ok()) return s;
    seg.writer = std::make_unique<log::Writer>(seg.file.get());
    seg.dirty = false;
  }
  next_segment_ = 0;
  return Status::OK();
}

Status Wal::AddRecord(const Slice& record) {
  if (open_segments_.empty()) return Status::IOError("no open WAL");
  Segment& seg = open_segments_[next_segment_];
  next_segment_ = (next_segment_ + 1) % segments_;
  Status s = seg.writer->AddRecord(record);
  if (s.ok()) seg.dirty = true;
  return s;
}

Status Wal::Sync() {
  // fsync epoch: every segment written since the last Sync becomes durable
  // before the write is acked.
  for (auto& seg : open_segments_) {
    if (seg.dirty && seg.file != nullptr) {
      Status s = seg.file->Sync();
      if (!s.ok()) return s;
      seg.dirty = false;
    }
  }
  return Status::OK();
}

Status Wal::CloseLog() {
  Status result;
  for (auto& seg : open_segments_) {
    seg.writer.reset();
    if (seg.file != nullptr) {
      Status s = seg.file->Close();
      if (result.ok()) result = s;
      seg.file.reset();
    }
  }
  open_segments_.clear();
  return result;
}

Status Wal::ScanLogFiles(std::vector<LogFile>* files) {
  files->clear();
  std::vector<std::string> children;
  Status s = env_->GetChildren(dbname_, &children);
  if (!s.ok()) return s;
  for (const auto& child : children) {
    uint64_t number;
    int segment;
    FileType type;
    if (ParseEWalFileName(child, &number, &segment)) {
      // A log written with a different K folds onto this K's shards.
      files->push_back({number, dbname_ + "/" + child, segment % segments_});
    } else if (ParseFileName(child, &number, &type) &&
               type == FileType::kLogFile) {
      files->push_back({number, dbname_ + "/" + child, 0});
    }
  }
  return Status::OK();
}

Status Wal::ListLogs(std::vector<uint64_t>* numbers) {
  numbers->clear();
  std::vector<LogFile> files;
  Status s = ScanLogFiles(&files);
  if (!s.ok()) return s;
  std::set<uint64_t> unique;
  for (const LogFile& f : files) unique.insert(f.number);
  numbers->assign(unique.begin(), unique.end());
  return Status::OK();
}

Status Wal::Replay(
    uint64_t number,
    const std::function<Status(const Slice& record, int shard)>& apply,
    ReplayTelemetry* telemetry) {
  // A crash may have happened before all K segments were created, or K may
  // differ from the writer's K: replay whatever files exist.
  std::vector<LogFile> lanes;
  Status s = ScanLogFiles(&lanes);
  if (!s.ok()) return s;
  lanes.erase(std::remove_if(lanes.begin(), lanes.end(),
                             [number](const LogFile& f) {
                               return f.number != number;
                             }),
              lanes.end());
  if (lanes.empty()) return Status::OK();

  // One mutex per shard: lanes that map onto one shard (a legacy file on
  // shard 0, or a log written with a larger K) serialize their apply calls
  // instead of racing.
  std::vector<Mutex> shard_mutexes(segments_);
  std::vector<Status> statuses(lanes.size());
  std::vector<uint64_t> micros(lanes.size(), 0);
  std::vector<std::function<void()>> tasks;
  tasks.reserve(lanes.size());
  for (size_t i = 0; i < lanes.size(); i++) {
    const LogFile* lane = &lanes[i];
    Status* out = &statuses[i];
    uint64_t* out_micros = &micros[i];
    tasks.push_back([this, lane, &apply, &shard_mutexes, out, out_micros] {
      const uint64_t start = SystemClock::Default()->NowMicros();
      std::unique_ptr<SequentialFile> file;
      *out = env_->NewSequentialFile(lane->path, &file);
      if (out->ok()) {
        // Corruption truncates this lane's replay only (point-in-time
        // semantics per segment).
        log::Reader reader(file.get(), /*reporter=*/nullptr);
        Slice record;
        std::string scratch;
        while (out->ok() && reader.ReadRecord(&record, &scratch)) {
          MutexLock l(&shard_mutexes[lane->shard]);
          *out = apply(record, lane->shard);
        }
      }
      *out_micros = SystemClock::Default()->NowMicros() - start;
    });
  }
  RunParallel(tasks);
  if (telemetry != nullptr) telemetry->shard_micros = micros;
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace rocksmash
