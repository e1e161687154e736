#include "mash/placement.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/shared_resources.h"
#include "table/format.h"
#include "util/clock.h"
#include "util/event_listener.h"
#include "util/metrics.h"
#include "util/perf_context.h"
#include "util/thread_pool.h"

namespace rocksmash {

namespace {

class CloudBlockSource;

// One range GET in a source's in-flight table. A reader whose block it
// covers waits for it instead of fetching the block again, and the scan
// that planned it keeps it to read the blocks after the one it missed. When
// the GET completes, every data block it was planned for is admitted to the
// persistent cache and the fetch leaves the table.
struct CloudFetch final : public BlockRange {
  CloudFetch(CloudBlockSource* owner, uint64_t offset)
      : source(owner), begin(offset), limit(offset) {}
  // why unchecked: a read-ahead that failed before anyone needed its bytes
  // is moot; every reader that does gets the error from Read().
  ~CloudFetch() override { status.PermitUncheckedError(); }

  uint64_t offset() const override { return begin; }
  uint64_t end() const override { return limit; }
  Status Read(const BlockHandle& handle, BlockContents* result) override;

  void Add(const BlockHandle& h, BlockKind kind) {
    limit = std::max(limit, h.offset() + h.size() + kBlockTrailerSize);
    if (kind == BlockKind::kData) admit.push_back(h);
  }

  CloudBlockSource* const source;
  const uint64_t begin;
  // Grows only while the fetch is planned, under the source's mutex.
  uint64_t limit;
  std::vector<BlockHandle> admit;  // data blocks for the persistent cache
  // Set under the source's mutex when the GET completes; read-only after.
  bool done = false;
  Status status;
  std::string buffer;
};

// BlockSource for a cloud-resident SST. Metadata reads are served from the
// packed local metadata region and data reads from the persistent cache;
// the rest come from the cloud through one fetch planner. A point read
// fetches exactly its block, a MultiGet batch coalesces neighbouring misses,
// and a scan fetches a window of blocks from its first miss on. Every GET
// goes through the in-flight table, so a reader of a block that a pending
// GET covers waits for it rather than fetching the block again.
class CloudBlockSource final : public BlockSource {
 public:
  CloudBlockSource(TieredTableStorage* storage, ObjectStore* store,
                   std::string key, uint64_t number, uint64_t pcache_number,
                   PersistentCache* pcache, uint64_t metadata_offset,
                   uint64_t readahead_bytes,
                   std::shared_ptr<std::atomic<uint64_t>> heat,
                   uint64_t pin_check_every, Statistics* statistics)
      : storage_(storage),
        store_(store),
        key_(std::move(key)),
        number_(number),
        pcache_number_(pcache_number),
        pcache_(pcache),
        metadata_offset_(metadata_offset),
        readahead_bytes_(readahead_bytes),
        heat_(std::move(heat)),
        pin_check_every_(pin_check_every),
        statistics_(statistics),
        cv_(&mu_) {}

  ~CloudBlockSource() override {
    // Pool jobs capture `this`: wait until every fetch has left the table.
    MutexLock l(&mu_);
    while (!inflight_.empty()) cv_.Wait();
  }

  Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                   BlockContents* result) override {
    BlockFetchRequest r;
    r.handle = handle;
    r.kind = kind;
    ReadBlocks(&r, 1, BlockBatchOptions());
    *result = std::move(r.contents);
    return r.status;
  }

  // Serves local hits inline. Each miss joins a pending fetch that covers
  // it; the rest are coalesced into range GETs of at most one readahead
  // window (window 0: one GET per block), run concurrently on the shared
  // fetch pool, at most `max_parallel` at a time.
  void ReadBlocks(BlockFetchRequest* requests, size_t n,
                  const BlockBatchOptions& opts) override {
    Touch(n);
    std::vector<BlockFetchRequest*> misses;
    for (size_t i = 0; i < n; i++) {
      if (!ServeLocal(&requests[i])) misses.push_back(&requests[i]);
    }
    if (misses.empty()) return;
    std::sort(misses.begin(), misses.end(),
              [](const BlockFetchRequest* a, const BlockFetchRequest* b) {
                return a->handle.offset() < b->handle.offset();
              });
    const uint64_t window =
        opts.readahead_hint > 0 ? opts.readahead_hint : readahead_bytes_;
    std::vector<std::shared_ptr<CloudFetch>> served_by(misses.size());
    std::vector<bool> joined(misses.size());
    std::vector<std::shared_ptr<CloudFetch>> mine;
    {
      MutexLock l(&mu_);
      for (size_t i = 0; i < misses.size(); i++) {
        const BlockHandle& h = misses[i]->handle;
        served_by[i] = PendingLocked(h);
        joined[i] = served_by[i] != nullptr;
        if (joined[i]) continue;
        if (mine.empty() ||
            h.offset() + h.size() + kBlockTrailerSize - mine.back()->begin >
                window) {
          mine.push_back(NewFetchLocked(h.offset()));
        }
        mine.back()->Add(h, misses[i]->kind);
        served_by[i] = mine.back();
      }
    }
    RunAll(mine, opts.max_parallel);
    for (size_t i = 0; i < misses.size(); i++) {
      if (joined[i]) PerfCount(&PerfContext::readahead_hit_count);
      misses[i]->status =
          ReadFrom(served_by[i].get(), misses[i]->handle, misses[i]->kind,
                   &misses[i]->contents, joined[i]);
    }
  }

  Status ReadRaw(uint64_t offset, size_t n, std::string* out) override {
    if (pcache_ != nullptr && offset >= metadata_offset_ &&
        pcache_->ReadMetadata(pcache_number_, offset, n, out)) {
      RecordTick(statistics_, PERSISTENT_CACHE_METADATA_HIT);
      return Status::OK();
    }
    return CloudGet(offset, n, out);
  }

  // A scan's miss: fetch the block and the first planned window after it
  // (less any blocks already in the persistent cache at its tail, or covered
  // by a pending fetch) in one GET on the calling thread, which needs the
  // block now. Each later window is planned as Prefetch plans one and
  // started on the fetch pool first, so its GET overlaps with this one.
  Status ReadScanBlock(
      const BlockHandle& handle, const ReadaheadPlan& plan,
      BlockContents* result,
      std::vector<std::shared_ptr<BlockRange>>* ranges) override {
    Touch(1);
    BlockFetchRequest r;
    r.handle = handle;
    if (ServeLocal(&r)) {
      *result = std::move(r.contents);
      return r.status;
    }
    std::vector<std::vector<BlockHandle>> windows = plan();
    if (windows.empty()) windows.emplace_back();  // the block alone
    for (size_t w = 0; w < windows.size(); w++) {
      TrimPcached(&windows[w], /*head=*/w > 0);
    }
    std::shared_ptr<CloudFetch> fetch;
    bool joined;
    std::vector<std::shared_ptr<CloudFetch>> ahead;
    {
      MutexLock l(&mu_);
      fetch = PendingLocked(handle);
      joined = fetch != nullptr;
      if (!joined) {
        fetch = NewFetchLocked(handle.offset());
        fetch->Add(handle, BlockKind::kData);
        for (const BlockHandle& h : windows[0]) {
          if (PendingLocked(h) != nullptr) break;
          fetch->Add(h, BlockKind::kData);
        }
      }
      for (size_t w = 1; w < windows.size(); w++) {
        std::shared_ptr<CloudFetch> next = PlanLocked(windows[w]);
        if (next != nullptr) ahead.push_back(std::move(next));
      }
    }
    ranges->push_back(fetch);
    for (std::shared_ptr<CloudFetch>& next : ahead) {
      Start(next);
      ranges->push_back(std::move(next));
    }
    if (joined) {
      PerfCount(&PerfContext::readahead_hit_count);
    } else {
      CountScanFetch(*fetch);
      Run(fetch.get());
    }
    return ReadFrom(fetch.get(), handle, BlockKind::kData, result, joined);
  }

  // Scan read-ahead: one window, run on the shared fetch pool so the GET
  // overlaps with the scan consuming the blocks before it.
  std::shared_ptr<BlockRange> Prefetch(const BlockHandle* handles,
                                       size_t n) override {
    std::vector<BlockHandle> window(handles, handles + n);
    TrimPcached(&window, /*head=*/true);
    std::shared_ptr<CloudFetch> fetch;
    {
      MutexLock l(&mu_);
      fetch = PlanLocked(window);
    }
    if (fetch != nullptr) Start(fetch);
    return fetch;
  }

 private:
  friend struct CloudFetch;

  // Heat tracking without the storage mutex: bump the shared counter and
  // run the (locking) promotion check once per pin_check_every_ accesses.
  void Touch(uint64_t n) {
    const uint64_t accesses =
        heat_->fetch_add(n, std::memory_order_relaxed) + n;
    if (pin_check_every_ != 0 && accesses / pin_check_every_ !=
                                     (accesses - n) / pin_check_every_) {
      storage_->MaybePromote(number_);
    }
  }

  bool InPcache(const BlockHandle& h) {
    return pcache_ != nullptr && pcache_->HasBlock(pcache_number_, h.offset());
  }

  // Serves `r` from the packed metadata region or the persistent cache;
  // false when it has to come from the cloud.
  bool ServeLocal(BlockFetchRequest* r) {
    if (pcache_ == nullptr) return false;
    const size_t n = static_cast<size_t>(r->handle.size()) + kBlockTrailerSize;
    std::string raw;
    if (r->kind != BlockKind::kData) {
      if (!pcache_->ReadMetadata(pcache_number_, r->handle.offset(), n,
                                 &raw) ||
          raw.size() != n) {
        RecordTick(statistics_, PERSISTENT_CACHE_METADATA_MISS);
        return false;
      }
      RecordTick(statistics_, PERSISTENT_CACHE_METADATA_HIT);
    } else if (!pcache_->GetBlock(pcache_number_, r->handle.offset(), &raw) ||
               raw.size() != n) {
      return false;
    }
    r->status = VerifyAndStripTrailer(Slice(raw), r->handle, &r->contents);
    return true;
  }

  std::shared_ptr<CloudFetch> PendingLocked(const BlockHandle& h)
      EXCLUSIVE_LOCKS_REQUIRED(mu_) {
    for (const auto& fetch : inflight_) {
      if (fetch->Covers(h)) return fetch;
    }
    return nullptr;
  }

  std::shared_ptr<CloudFetch> NewFetchLocked(uint64_t offset)
      EXCLUSIVE_LOCKS_REQUIRED(mu_) {
    inflight_.push_back(std::make_shared<CloudFetch>(this, offset));
    return inflight_.back();
  }

  // Drops the blocks already in the persistent cache from the tail of a
  // planned window, and from its head too when `head`.
  void TrimPcached(std::vector<BlockHandle>* window, bool head) {
    while (!window->empty() && InPcache(window->back())) window->pop_back();
    if (!head) return;
    size_t cached = 0;
    while (cached < window->size() && InPcache((*window)[cached])) cached++;
    window->erase(window->begin(), window->begin() + cached);
  }

  // A new fetch of `window`'s blocks after those a pending fetch already
  // covers, up to the next covered one; nullptr when none is left.
  std::shared_ptr<CloudFetch> PlanLocked(const std::vector<BlockHandle>& window)
      EXCLUSIVE_LOCKS_REQUIRED(mu_) {
    size_t first = 0;
    while (first < window.size() && PendingLocked(window[first]) != nullptr) {
      first++;
    }
    if (first == window.size()) return nullptr;
    std::shared_ptr<CloudFetch> fetch = NewFetchLocked(window[first].offset());
    for (size_t i = first;
         i < window.size() && PendingLocked(window[i]) == nullptr; i++) {
      fetch->Add(window[i], BlockKind::kData);
    }
    return fetch;
  }

  void CountScanFetch(const CloudFetch& fetch) {
    RecordTick(statistics_, SCAN_READAHEAD_ISSUED);
    RecordTick(statistics_, SCAN_READAHEAD_BYTES, fetch.limit - fetch.begin);
  }

  // Starts a read-ahead fetch on the shared fetch pool, or runs it inline
  // when there is no pool or it is shutting down.
  void Start(const std::shared_ptr<CloudFetch>& fetch) {
    CountScanFetch(*fetch);
    ThreadPool* pool = storage_->read_fetch_pool();
    if (pool == nullptr ||
        !pool->Schedule([this, fetch] { Run(fetch.get()); })) {
      Run(fetch.get());
    }
  }

  // Performs `fetch`'s GET, admits its data blocks to the persistent cache,
  // then retires it from the in-flight table and wakes its readers.
  void Run(CloudFetch* fetch) {
    const uint64_t length = fetch->limit - fetch->begin;
    std::string buffer;
    Status s = CloudGet(fetch->begin, length, &buffer);
    if (s.ok() && buffer.size() < length) {
      s = Status::Corruption("short cloud read", key_);
    }
    if (s.ok() && pcache_ != nullptr) {
      for (const BlockHandle& h : fetch->admit) {
        pcache_->PutBlock(pcache_number_, h.offset(),
                          Slice(buffer.data() + (h.offset() - fetch->begin),
                                h.size() + kBlockTrailerSize));
      }
    }
    MutexLock l(&mu_);
    fetch->status = std::move(s);
    fetch->buffer = std::move(buffer);
    fetch->done = true;
    inflight_.erase(std::find_if(inflight_.begin(), inflight_.end(),
                                 [fetch](const std::shared_ptr<CloudFetch>& f) {
                                   return f.get() == fetch;
                                 }));
    cv_.NotifyAll();
  }

  // Runs a reader's own fetches: inline when there is one, else in waves of
  // at most `max_parallel` concurrent GETs on the shared fetch pool.
  void RunAll(const std::vector<std::shared_ptr<CloudFetch>>& fetches,
              int max_parallel) {
    ThreadPool* pool = storage_->read_fetch_pool();
    const size_t wave = static_cast<size_t>(std::max(1, max_parallel));
    if (pool == nullptr || wave == 1 || fetches.size() <= 1) {
      for (const auto& fetch : fetches) Run(fetch.get());
      return;
    }
    for (size_t start = 0; start < fetches.size(); start += wave) {
      const size_t end = std::min(fetches.size(), start + wave);
      // Lock order: leaf. Local join latch for one wave; worker threads
      // signal completion under it and take nothing else.
      Mutex wave_mu;
      CondVar wave_cv(&wave_mu);
      size_t pending = end - start;
      auto finish = [&wave_mu, &wave_cv, &pending] {
        MutexLock l(&wave_mu);
        if (--pending == 0) wave_cv.NotifyAll();
      };
      for (size_t i = start; i < end; i++) {
        CloudFetch* fetch = fetches[i].get();
        const bool scheduled = pool->Schedule([this, fetch, &finish] {
          Run(fetch);
          RecordTick(statistics_, MULTIGET_CLOUD_PARALLEL_GETS);
          finish();
        });
        if (!scheduled) {
          Run(fetch);  // pool shutting down: degrade to inline
          finish();
        }
      }
      MutexLock l(&wave_mu);
      while (pending > 0) wave_cv.Wait();
    }
  }

  // Waits for `fetch`, then verifies and returns the block at `handle` from
  // its bytes. `ahead`: the fetch was planned for another block, so serving
  // this one is a read-ahead hit.
  Status ReadFrom(CloudFetch* fetch, const BlockHandle& handle, BlockKind kind,
                  BlockContents* result, bool ahead) {
    bool done;
    {
      MutexLock l(&mu_);
      done = fetch->done;
    }
    if (!done) {
      // Timed outside mu_: the scopes report after the lock is released.
      StopWatch wait_watch(statistics_, CLOUD_FETCH_WAIT_US);
      PerfScope wait_scope(&PerfContext::cloud_fetch_wait_time);
      MutexLock l(&mu_);
      while (!fetch->done) cv_.Wait();
    }
    if (!fetch->status.ok()) return fetch->status;
    if (kind == BlockKind::kData) {
      RecordTick(statistics_, CLOUD_BLOCK_READS);
      if (ahead) {
        RecordTick(statistics_, SCAN_READAHEAD_HITS);
        PerfCount(&PerfContext::scan_prefetch_hit_count);
      }
    }
    const Slice raw(fetch->buffer.data() + (handle.offset() - fetch->begin),
                    handle.size() + kBlockTrailerSize);
    return VerifyAndStripTrailer(raw, handle, result);
  }

  // All cloud range reads funnel through here for uniform accounting.
  Status CloudGet(uint64_t offset, uint64_t n, std::string* out) {
    StopWatch sw(statistics_, CLOUD_GET_LATENCY_US);
    PerfScope time_scope(&PerfContext::cloud_read_time);
    Status s = store_->GetRange(key_, offset, n, out);
    if (s.ok()) {
      RecordTick(statistics_, CLOUD_GET_COUNT);
      RecordTick(statistics_, CLOUD_GET_BYTES, out->size());
      PerfCount(&PerfContext::cloud_read_count);
      PerfCount(&PerfContext::cloud_read_bytes, out->size());
    }
    return s;
  }

  TieredTableStorage* storage_;
  ObjectStore* store_;
  std::string key_;
  uint64_t number_;
  // The namespaced persistent-cache id (TieredTableStorage::PcId): distinct
  // from number_ when shards share one cache.
  uint64_t pcache_number_;
  PersistentCache* pcache_;
  uint64_t metadata_offset_;
  uint64_t readahead_bytes_;  // largest coalesced MultiGet range GET
  std::shared_ptr<std::atomic<uint64_t>> heat_;
  uint64_t pin_check_every_;
  Statistics* statistics_;

  // Lock order: leaf. Guards the in-flight table and every fetch's
  // completion state; never held across a GET or a persistent-cache call.
  Mutex mu_;
  CondVar cv_;
  std::vector<std::shared_ptr<CloudFetch>> inflight_ GUARDED_BY(mu_);
};

Status CloudFetch::Read(const BlockHandle& handle, BlockContents* result) {
  source->Touch(1);
  return source->ReadFrom(this, handle, BlockKind::kData, result,
                          /*ahead=*/true);
}
// Local file source that also feeds the heat tracker (pinned files count as
// cloud heat so pins refresh).
class LocalBlockSource final : public BlockSource {
 public:
  LocalBlockSource(std::unique_ptr<RandomAccessFile> file,
                   Statistics* statistics)
      : file_(std::move(file)), source_(file_.get()), statistics_(statistics) {}

  Status ReadBlock(const BlockHandle& handle, BlockKind kind,
                   BlockContents* result) override {
    if (kind == BlockKind::kData) {
      RecordTick(statistics_, LOCAL_BLOCK_READS);
    }
    return source_.ReadBlock(handle, kind, result);
  }
  Status ReadRaw(uint64_t offset, size_t n, std::string* out) override {
    return source_.ReadRaw(offset, n, out);
  }

 private:
  std::unique_ptr<RandomAccessFile> file_;
  FileBlockSource source_;
  Statistics* statistics_;
};

}  // namespace

TieredTableStorage::TieredTableStorage(const TieredStorageOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      upload_cv_(&mu_) {
  if (options_.shared_resources == nullptr) {
    // why unchecked: the default options always validate.
    SharedResources::Create(SharedResourcesOptions(),
                            &options_.shared_resources)
        .PermitUncheckedError();
  }
  if (options_.cloud != nullptr) {
    fetch_pool_ = options_.shared_resources->cloud_fetch_pool();
    if (options_.async_uploads) {
      upload_pool_ = options_.shared_resources->upload_pool();
    }
  }
  // why unchecked: an unusable local dir fails the first staging-file
  // create with a better message; the constructor has no error channel.
  env_->CreateDirRecursively(options_.local_dir).PermitUncheckedError();
  // Rediscover local table files (restart path). Cloud files are
  // rediscovered lazily through OpenTable (a Head probe) or eagerly here.
  std::vector<std::string> children;
  if (env_->GetChildren(options_.local_dir, &children).ok()) {
    for (const auto& child : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(child, &number, &type) &&
          type == FileType::kTableFile) {
        uint64_t size = 0;
        if (env_->GetFileSize(LocalPath(number), &size).ok()) {
          FileState st;
          st.tier = Tier::kLocal;
          st.size = size;
          files_[number] = st;
        }
      }
    }
  }
  if (options_.cloud != nullptr) {
    std::vector<ObjectMeta> objects;
    if (options_.cloud->List(options_.cloud_prefix, &objects).ok()) {
      for (const auto& meta : objects) {
        // Key basename is "{number}.sst".
        size_t slash = meta.key.rfind('/');
        std::string base =
            slash == std::string::npos ? meta.key : meta.key.substr(slash + 1);
        uint64_t number;
        FileType type;
        if (ParseFileName(base, &number, &type) &&
            type == FileType::kTableFile && files_.count(number) == 0) {
          FileState st;
          st.tier = Tier::kCloud;
          st.size = meta.size;
          if (options_.persistent_cache != nullptr) {
            uint64_t mo, fs;
            if (options_.persistent_cache->GetMetadataInfo(PcId(number), &mo,
                                                           &fs)) {
              st.metadata_offset = mo;
            }
          }
          files_[number] = st;
        }
      }
    }
  }
}

TieredTableStorage::~TieredTableStorage() {
  // The upload pool may serve other shards, so drain this storage's jobs:
  // they capture `this` and must not outlive it. In-flight jobs observe
  // stopping_ between retry attempts and park quickly, leaving their file
  // kUploading on its durable local staging copy (re-uploaded after restart
  // via the usual level-change path).
  stopping_.store(true, std::memory_order_release);
  if (upload_pool_ != nullptr) WaitForPendingUploads();
}

std::string TieredTableStorage::LocalPath(uint64_t number) const {
  return TableFileName(options_.local_dir, number);
}

std::string TieredTableStorage::CloudKey(uint64_t number) const {
  return CloudTableKey(options_.cloud_prefix, number);
}

Status TieredTableStorage::NewStagingFile(uint64_t number,
                                          std::unique_ptr<WritableFile>* file) {
  return env_->NewWritableFile(LocalPath(number), file);
}

Status TieredTableStorage::Install(uint64_t number, int level,
                                   uint64_t file_size,
                                   uint64_t metadata_offset) {
  MutexLock l(&mu_);
  FileState st;
  st.level = level;
  st.size = file_size;
  st.metadata_offset = metadata_offset;

  if (options_.cloud == nullptr || level < options_.cloud_level_start) {
    st.tier = Tier::kLocal;
    files_[number] = st;
    return Status::OK();
  }

  if (upload_pool_ != nullptr) {
    // Async pipeline: the staging copy keeps serving reads while the PUT
    // runs on the upload pool; compaction/flush never wait on the cloud.
    auto it = files_.insert_or_assign(number, st).first;
    EnqueueUploadLocked(number, &it->second);
    return Status::OK();
  }

  Status s = UploadLocked(number, &st);
  if (!s.ok()) return s;
  files_[number] = st;
  return Status::OK();
}

void TieredTableStorage::EnqueueUploadLocked(uint64_t number,
                                             FileState* state) {
  state->tier = Tier::kUploading;
  const uint64_t epoch = ++state->upload_epoch;
  inflight_uploads_++;
  if (!upload_pool_->Schedule(
          [this, number, epoch] { UploadJob(number, epoch); })) {
    // Pool is already shutting down: park on the durable local copy.
    inflight_uploads_--;
    RecordTick(options_.statistics, CLOUD_UPLOADS_PARKED);
    upload_cv_.NotifyAll();
  }
}

void TieredTableStorage::FinishUploadJobLocked() {
  assert(inflight_uploads_ > 0);
  inflight_uploads_--;
  upload_cv_.NotifyAll();
}

void TieredTableStorage::UploadJob(uint64_t number, uint64_t epoch) {
  StopWatch job_sw(options_.statistics, CLOUD_UPLOAD_JOB_LATENCY_US);
  uint32_t attempt_failures = 0;
  uint64_t metadata_offset = 0;
  {
    MutexLock l(&mu_);
    auto it = files_.find(number);
    if (it == files_.end() || it->second.upload_epoch != epoch ||
        it->second.tier != Tier::kUploading) {
      // Cancelled before any cloud write happened; nothing to clean up.
      RecordTick(options_.statistics, CLOUD_UPLOADS_CANCELLED);
      FinishUploadJobLocked();
      return;
    }
    metadata_offset = it->second.metadata_offset;
  }

  // The staging file was synced and closed before Install, and kUploading
  // files are never rewritten, so it is safe to read without mu_.
  std::string contents;
  Status s = ReadFileToString(env_, LocalPath(number), &contents);
  if (s.ok()) {
    Clock* clock = options_.retry_clock != nullptr ? options_.retry_clock
                                                   : SystemClock::Default();
    uint64_t backoff = options_.cloud_retry_backoff_micros;
    const int attempts = std::max(1, options_.cloud_retry_attempts);
    for (int attempt = 0;; attempt++) {
      if (stopping_.load(std::memory_order_acquire)) {
        s = Status::ShutdownInProgress("upload abandoned at shutdown");
        break;
      }
      {
        StopWatch put_sw(options_.statistics, CLOUD_PUT_LATENCY_US);
        RecordTick(options_.statistics, CLOUD_PUT_COUNT);
        s = options_.cloud->Put(CloudKey(number), contents);
      }
      if (s.ok()) {
        RecordTick(options_.statistics, CLOUD_PUT_BYTES, contents.size());
        break;
      }
      attempt_failures++;
      if (attempt + 1 >= attempts) break;
      retried_uploads_.fetch_add(1, std::memory_order_relaxed);
      RecordTick(options_.statistics, CLOUD_UPLOAD_RETRIES);
      clock->SleepMicros(backoff);
      backoff *= 2;
    }
  }

  if (!s.ok()) {
    // Park: the file stays kUploading and keeps serving reads from its
    // durable local copy, so nothing is lost. (After a restart it is
    // rediscovered as a local file and re-uploaded on a later level change.)
    failed_uploads_.fetch_add(1, std::memory_order_relaxed);
    RecordTick(options_.statistics, CLOUD_UPLOADS_PARKED);
    if (!options_.listeners.empty()) {
      UploadJobInfo info;
      info.file_number = number;
      info.bytes = contents.size();
      info.micros = job_sw.ElapsedMicros();
      info.retries = attempt_failures;
      for (EventListener* listener : options_.listeners) {
        listener->OnUploadFailed(info);
        listener->OnUploadParked(info);
      }
    }
    // Finish only after the callbacks ran: WaitForPendingUploads returning
    // guarantees every listener for a terminal upload has been invoked.
    MutexLock l(&mu_);
    FinishUploadJobLocked();
    return;
  }

  if (options_.persistent_cache != nullptr &&
      metadata_offset < contents.size()) {
    Slice tail(contents.data() + metadata_offset,
               contents.size() - metadata_offset);
    // Failure here only costs future cloud metadata reads.
    options_.persistent_cache
        ->AdmitMetadata(PcId(number), metadata_offset, contents.size(), tail)
        .ok();
  }

  bool remove_local = false;
  bool orphaned = false;
  bool completed = false;
  {
    MutexLock l(&mu_);
    auto it = files_.find(number);
    if (it == files_.end() ||
        (it->second.upload_epoch != epoch &&
         it->second.tier == Tier::kLocal)) {
      // The table was removed (or migrated back to a local level) while the
      // PUT was in flight: the object just written is an orphan.
      orphaned = true;
    } else if (it->second.upload_epoch == epoch &&
               it->second.tier == Tier::kUploading) {
      it->second.tier = Tier::kCloud;
      stats_.uploads++;
      remove_local = true;
      completed = true;
    }
    // Any other combination belongs to a newer upload job for the same
    // number; leave the object for that job to resolve.
  }
  RecordTick(options_.statistics,
             completed ? CLOUD_UPLOADS_COMPLETED : CLOUD_UPLOADS_CANCELLED);
  if (orphaned) {
    if (!options_.cloud->Delete(CloudKey(number)).ok()) {
      // The orphaned object stays in the bucket, silently costing storage;
      // make that observable instead of invisible.
      RecordTick(options_.statistics, CLOUD_DELETE_FAILED);
    }
    if (options_.persistent_cache != nullptr) {
      options_.persistent_cache->Invalidate(PcId(number));
    }
  }
  if (remove_local) {
    // New readers already see kCloud; readers that saw kUploading opened
    // their file handle under mu_ in OpenTable, so the unlink is safe.
    // why unchecked: the local copy is already superseded by the cloud
    // object; a leaked local file is reclaimed by the next restart scan.
    env_->RemoveFile(LocalPath(number)).PermitUncheckedError();
  }
  if (completed && !options_.listeners.empty()) {
    UploadJobInfo info;
    info.file_number = number;
    info.bytes = contents.size();
    info.micros = job_sw.ElapsedMicros();
    info.retries = attempt_failures;
    for (EventListener* listener : options_.listeners) {
      listener->OnUploadCompleted(info);
    }
  }
  // Finish only after cleanup and callbacks: WaitForPendingUploads returning
  // guarantees every listener for a terminal upload has been invoked.
  MutexLock l(&mu_);
  FinishUploadJobLocked();
}

void TieredTableStorage::WaitForPendingUploads() {
  MutexLock l(&mu_);
  while (inflight_uploads_ > 0) {
    upload_cv_.Wait();
  }
}

Status TieredTableStorage::UploadLocked(uint64_t number, FileState* state) {
  // Read the staged file, upload it, persist the metadata tail into the
  // packed metadata region, and drop the local copy.
  std::string contents;
  Status s = ReadFileToString(env_, LocalPath(number), &contents);
  if (!s.ok()) return s;

  // Transient cloud failures are retried with exponential backoff; the
  // staging file stays put, so even a surfaced failure is retryable.
  Clock* clock = options_.retry_clock != nullptr ? options_.retry_clock
                                                 : SystemClock::Default();
  uint64_t backoff = options_.cloud_retry_backoff_micros;
  for (int attempt = 0;; attempt++) {
    {
      StopWatch put_sw(options_.statistics, CLOUD_PUT_LATENCY_US);
      RecordTick(options_.statistics, CLOUD_PUT_COUNT);
      s = options_.cloud->Put(CloudKey(number), contents);
    }
    if (s.ok()) {
      RecordTick(options_.statistics, CLOUD_PUT_BYTES, contents.size());
      break;
    }
    if (attempt + 1 >= std::max(1, options_.cloud_retry_attempts)) {
      return s;
    }
    retried_uploads_.fetch_add(1, std::memory_order_relaxed);
    RecordTick(options_.statistics, CLOUD_UPLOAD_RETRIES);
    clock->SleepMicros(backoff);
    backoff *= 2;
  }
  stats_.uploads++;
  RecordTick(options_.statistics, CLOUD_UPLOADS_COMPLETED);

  if (options_.persistent_cache != nullptr &&
      state->metadata_offset < contents.size()) {
    Slice tail(contents.data() + state->metadata_offset,
               contents.size() - state->metadata_offset);
    // why unchecked: failure here only costs future cloud metadata reads.
    options_.persistent_cache
        ->AdmitMetadata(PcId(number), state->metadata_offset, contents.size(), tail)
        .PermitUncheckedError();
  }

  // why unchecked: the upload already landed; a leaked local file is
  // reclaimed by the next restart scan.
  env_->RemoveFile(LocalPath(number)).PermitUncheckedError();
  state->tier = Tier::kCloud;
  return Status::OK();
}

Status TieredTableStorage::DownloadLocked(uint64_t number, FileState* state) {
  std::string contents;
  Status s;
  {
    StopWatch sw(options_.statistics, CLOUD_GET_LATENCY_US);
    s = options_.cloud->Get(CloudKey(number), &contents);
  }
  if (!s.ok()) return s;
  stats_.downloads++;
  RecordTick(options_.statistics, CLOUD_DOWNLOADS);
  RecordTick(options_.statistics, CLOUD_GET_COUNT);
  RecordTick(options_.statistics, CLOUD_GET_BYTES, contents.size());
  s = WriteStringToFile(env_, contents, LocalPath(number), /*sync=*/true);
  if (!s.ok()) return s;
  state->size = contents.size();
  return Status::OK();
}

Status TieredTableStorage::OnLevelChange(uint64_t number, int to_level) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) {
    return Status::OK();  // Unknown (e.g., pre-restart file); leave as-is.
  }
  FileState& st = it->second;
  st.level = to_level;
  if (options_.cloud == nullptr) return Status::OK();

  const bool should_be_cloud = to_level >= options_.cloud_level_start;
  if (should_be_cloud) {
    if (st.tier == Tier::kLocal) {
      if (upload_pool_ != nullptr) {
        EnqueueUploadLocked(number, &st);
        return Status::OK();
      }
      return UploadLocked(number, &st);
    }
    return Status::OK();  // kUploading/kCloud/kPinned already satisfy it.
  }
  if (st.tier == Tier::kUploading) {
    // Cancel the in-flight upload: bump the epoch so its completion is
    // discarded (and the object deleted if the PUT already landed). The
    // local staging copy is still in place.
    st.upload_epoch++;
    st.tier = Tier::kLocal;
    return Status::OK();
  }
  if (st.tier == Tier::kCloud) {
    Status s = DownloadLocked(number, &st);
    if (!s.ok()) return s;
    st.tier = Tier::kLocal;
    if (!options_.cloud->Delete(CloudKey(number)).ok()) {
      // Demotion already succeeded locally; the stale object only costs
      // bucket storage until a future cleanup. Count it.
      RecordTick(options_.statistics, CLOUD_DELETE_FAILED);
    }
    if (options_.persistent_cache != nullptr) {
      options_.persistent_cache->Invalidate(PcId(number));
    }
  }
  return Status::OK();
}

Status TieredTableStorage::OpenTable(uint64_t number,
                                     std::unique_ptr<BlockSource>* source,
                                     uint64_t* file_size) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) {
    // Unknown file: probe local then cloud (restart path).
    FileState st;
    uint64_t size = 0;
    if (env_->GetFileSize(LocalPath(number), &size).ok()) {
      st.tier = Tier::kLocal;
      st.size = size;
    } else if (options_.cloud != nullptr) {
      ObjectMeta meta;
      Status s = options_.cloud->Head(CloudKey(number), &meta);
      if (!s.ok()) return s;
      st.tier = Tier::kCloud;
      st.size = meta.size;
    } else {
      return Status::NotFound("table file", std::to_string(number));
    }
    it = files_.emplace(number, st).first;
  }

  FileState& st = it->second;
  *file_size = st.size;

  if (st.tier != Tier::kCloud) {
    // kLocal, kPinned, and kUploading all serve from the local copy; a file
    // whose upload is in flight never blocks (or redirects) a reader.
    const std::string path = LocalPath(number);
    std::unique_ptr<RandomAccessFile> file;
    Status s = env_->NewRandomAccessFile(path, &file);
    if (!s.ok()) return s;
    *source =
        std::make_unique<LocalBlockSource>(std::move(file), options_.statistics);
    return Status::OK();
  }

  const uint64_t pin_check_every =
      options_.pin_hot_files && options_.pin_after_accesses > 0
          ? options_.pin_after_accesses
          : 0;
  *source = std::make_unique<CloudBlockSource>(
      this, options_.cloud, CloudKey(number), number, PcId(number),
      options_.persistent_cache, st.metadata_offset,
      options_.cloud_readahead_bytes, st.heat, pin_check_every,
      options_.statistics);
  return Status::OK();
}

Status TieredTableStorage::Remove(uint64_t number) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  Tier tier = Tier::kLocal;
  if (it != files_.end()) {
    tier = it->second.tier;
    if (tier == Tier::kPinned) {
      pinned_bytes_ -= it->second.size;
    }
    files_.erase(it);
  }

  // Remove every copy; tolerate absence (idempotent). A kUploading file's
  // in-flight job finds its map entry gone and deletes any object its PUT
  // produced after this point.
  Status local = env_->RemoveFile(LocalPath(number));
  Status cloud;
  if (options_.cloud != nullptr && tier != Tier::kLocal) {
    cloud = options_.cloud->Delete(CloudKey(number));
  }
  if (options_.persistent_cache != nullptr) {
    // Compaction-aware invalidation: the whole extent + slab, O(1).
    options_.persistent_cache->Invalidate(PcId(number));
  }
  if (tier == Tier::kLocal || tier == Tier::kUploading) {
    // why unchecked: the authoritative copy is local; the cloud delete is a
    // best-effort cleanup of an object the (possibly parked) upload may never
    // have created, so NotFound here is the norm.
    cloud.PermitUncheckedError();
    return local;
  }
  // why unchecked: a cloud-tier table usually has no local copy left, so the
  // staging-file removal is best-effort and NotFound here is the norm.
  local.PermitUncheckedError();
  return cloud;
}

Status TieredTableStorage::ListTables(std::vector<uint64_t>* numbers) {
  numbers->clear();
  MutexLock l(&mu_);
  for (const auto& [number, st] : files_) {
    (void)st;
    numbers->push_back(number);
  }
  return Status::OK();
}

bool TieredTableStorage::IsLocal(uint64_t number) const {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  return it == files_.end() || it->second.tier != Tier::kCloud;
}

void TieredTableStorage::RecordAccess(uint64_t number) {
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) return;
  it->second.heat->fetch_add(1, std::memory_order_relaxed);
  if (options_.pin_hot_files) {
    MaybePinLocked(number, &it->second);
  }
}

void TieredTableStorage::MaybePromote(uint64_t number) {
  if (!options_.pin_hot_files) return;
  MutexLock l(&mu_);
  auto it = files_.find(number);
  if (it == files_.end()) return;
  MaybePinLocked(number, &it->second);
}

void TieredTableStorage::MaybePinLocked(uint64_t number, FileState* st) {
  if (st->tier != Tier::kCloud) return;
  if (st->heat->load(std::memory_order_relaxed) < options_.pin_after_accesses)
    return;
  if (pinned_bytes_ + st->size > options_.pin_budget_bytes) return;
  if (DownloadLocked(number, st).ok()) {
    st->tier = Tier::kPinned;
    pinned_bytes_ += st->size;
    RecordTick(options_.statistics, HOT_FILE_PINS);
    // Note: already-open readers keep using the cloud source until the
    // table cache recycles them; new opens go local.
  }
}

TableStorageStats TieredTableStorage::GetStats() const {
  MutexLock l(&mu_);
  TableStorageStats s = stats_;
  for (const auto& [number, st] : files_) {
    (void)number;
    switch (st.tier) {
      case Tier::kLocal:
        s.local_bytes += st.size;
        s.local_files++;
        break;
      case Tier::kUploading:
        s.local_bytes += st.size;
        s.local_files++;
        s.pending_uploads++;
        break;
      case Tier::kCloud:
        s.cloud_bytes += st.size;
        s.cloud_files++;
        break;
      case Tier::kPinned:
        s.local_bytes += st.size;
        s.cloud_bytes += st.size;
        s.local_files++;
        s.cloud_files++;
        break;
    }
  }
  return s;
}

}  // namespace rocksmash
