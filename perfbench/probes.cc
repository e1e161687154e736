#include "probes.h"

#include <chrono>
#include <mutex>

namespace perfbench {

using rocksmash::Env;
using rocksmash::ObjectMeta;
using rocksmash::ObjectStore;
using rocksmash::RandomAccessFile;
using rocksmash::SequentialFile;
using rocksmash::Slice;
using rocksmash::Status;
using rocksmash::WritableFile;

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_op_id{1};
std::atomic<uint32_t> g_next_thread{1};

thread_local bool t_client = false;
thread_local uint64_t t_op_id = 0;
thread_local OpChildren* t_children = nullptr;

bool EndsWith(const std::string& s, const char* suffix) {
  const size_t n = std::char_traits<char>::length(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

// --- Span buffers ----------------------------------------------------------

enum SpanName : uint16_t {
  kSpanOpBase = 0,                                    // op.<kind>
  kSpanEnvBase = kSpanOpBase + kNumOpKinds,           // env.<class>.<io>
  kSpanCloudGet = kSpanEnvBase + kNumFileClasses * 4,
  kSpanCloudPut,
  kSpanCloudOther,
};
enum EnvIo : int { kOpen = 0, kRead, kWrite, kSync };

struct ThreadSpans {
  std::mutex mu;  // uncontended: only the owner thread and the collector
  std::vector<SpanRecord> spans;
  uint32_t thread = 0;
};

std::mutex g_span_mu;
std::vector<std::unique_ptr<ThreadSpans>> g_span_bufs;
std::atomic<size_t> g_span_cap{0};
std::atomic<size_t> g_span_used{0};
std::atomic<uint64_t> g_span_dropped{0};
thread_local ThreadSpans* t_spans = nullptr;

void RecordSpan(uint16_t name, uint64_t start_ns, uint64_t end_ns) {
  if (g_span_used.fetch_add(1, std::memory_order_relaxed) >=
      g_span_cap.load(std::memory_order_relaxed)) {
    g_span_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (t_spans == nullptr) {
    auto buf = std::make_unique<ThreadSpans>();
    buf->thread = g_next_thread.fetch_add(1, std::memory_order_relaxed);
    t_spans = buf.get();
    std::lock_guard<std::mutex> l(g_span_mu);
    g_span_bufs.push_back(std::move(buf));
  }
  std::lock_guard<std::mutex> l(t_spans->mu);
  t_spans->spans.push_back(
      SpanRecord{start_ns, end_ns, t_op_id, t_spans->thread, name});
}

// --- Counters ----------------------------------------------------------------

struct AtomicClass {
#define DECLARE_FIELD(f) std::atomic<uint64_t> f{0};
  ENV_CLASS_FIELDS(DECLARE_FIELD)
#undef DECLARE_FIELD
};

struct EnvShared {
  AtomicClass counts[2][kNumFileClasses];

  AtomicClass& For(FileClass c) { return counts[t_client ? 0 : 1][c]; }
};

void Add(std::atomic<uint64_t>& a, uint64_t v) {
  a.fetch_add(v, std::memory_order_relaxed);
}

// Times one I/O call when tracing: adds to the class timer, records a span,
// and charges the active client op, if any.
class IoTimer {
 public:
  IoTimer(FileClass c, EnvIo io) : class_(c), io_(io) {
    if (TracingOn()) start_ = NowNanos();
  }
  // Returns elapsed ns (0 when untraced).
  uint64_t Finish(uint64_t read_count = 0) {
    if (start_ == 0) return 0;
    const uint64_t end = NowNanos();
    RecordSpan(static_cast<uint16_t>(kSpanEnvBase + class_ * 4 + io_), start_,
               end);
    if (t_children != nullptr) {
      t_children->env_ns[class_] += end - start_;
      t_children->env_reads[class_] += read_count;
    }
    return end - start_;
  }

 private:
  FileClass class_;
  EnvIo io_;
  uint64_t start_ = 0;
};

class CountingSequentialFile final : public SequentialFile {
 public:
  CountingSequentialFile(std::unique_ptr<SequentialFile> base, FileClass c,
                         EnvShared* shared)
      : base_(std::move(base)), class_(c), shared_(shared) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    IoTimer t(class_, kRead);
    Status s = base_->Read(n, result, scratch);
    AtomicClass& a = shared_->For(class_);
    Add(a.reads, 1);
    if (s.ok()) Add(a.read_bytes, result->size());
    Add(a.read_ns, t.Finish(1));
    return s;
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  std::unique_ptr<SequentialFile> base_;
  FileClass class_;
  EnvShared* shared_;
};

class CountingRandomAccessFile final : public RandomAccessFile {
 public:
  CountingRandomAccessFile(std::unique_ptr<RandomAccessFile> base, FileClass c,
                           EnvShared* shared)
      : base_(std::move(base)), class_(c), shared_(shared) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    IoTimer t(class_, kRead);
    Status s = base_->Read(offset, n, result, scratch);
    AtomicClass& a = shared_->For(class_);
    Add(a.reads, 1);
    if (s.ok()) Add(a.read_bytes, result->size());
    Add(a.read_ns, t.Finish(1));
    return s;
  }

 private:
  std::unique_ptr<RandomAccessFile> base_;
  FileClass class_;
  EnvShared* shared_;
};

class CountingWritableFile final : public WritableFile {
 public:
  CountingWritableFile(std::unique_ptr<WritableFile> base, FileClass c,
                       EnvShared* shared)
      : base_(std::move(base)), class_(c), shared_(shared) {}

  Status Append(const Slice& data) override {
    IoTimer t(class_, kWrite);
    Status s = base_->Append(data);
    AtomicClass& a = shared_->For(class_);
    Add(a.writes, 1);
    if (s.ok()) Add(a.write_bytes, data.size());
    Add(a.write_ns, t.Finish());
    return s;
  }
  Status Close() override { return base_->Close(); }
  Status Flush() override { return base_->Flush(); }
  Status Sync() override {
    IoTimer t(class_, kSync);
    Status s = base_->Sync();
    AtomicClass& a = shared_->For(class_);
    Add(a.syncs, 1);
    Add(a.sync_ns, t.Finish());
    return s;
  }

 private:
  std::unique_ptr<WritableFile> base_;
  FileClass class_;
  EnvShared* shared_;
};

class CountingEnvImpl final : public CountingEnv {
 public:
  explicit CountingEnvImpl(Env* base) : base_(base) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    const FileClass c = ClassifyFile(fname);
    IoTimer t(c, kOpen);
    std::unique_ptr<SequentialFile> file;
    Status s = base_->NewSequentialFile(fname, &file);
    Add(shared_.For(c).opens, 1);
    t.Finish();
    if (s.ok()) {
      *result =
          std::make_unique<CountingSequentialFile>(std::move(file), c, &shared_);
    }
    return s;
  }

  Status NewRandomAccessFile(
      const std::string& fname,
      std::unique_ptr<RandomAccessFile>* result) override {
    const FileClass c = ClassifyFile(fname);
    IoTimer t(c, kOpen);
    std::unique_ptr<RandomAccessFile> file;
    Status s = base_->NewRandomAccessFile(fname, &file);
    Add(shared_.For(c).opens, 1);
    t.Finish();
    if (s.ok()) {
      *result = std::make_unique<CountingRandomAccessFile>(std::move(file), c,
                                                           &shared_);
    }
    return s;
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    const FileClass c = ClassifyFile(fname);
    IoTimer t(c, kOpen);
    std::unique_ptr<WritableFile> file;
    Status s = base_->NewWritableFile(fname, &file);
    Add(shared_.For(c).opens, 1);
    t.Finish();
    if (s.ok()) {
      *result =
          std::make_unique<CountingWritableFile>(std::move(file), c, &shared_);
    }
    return s;
  }

  bool FileExists(const std::string& fname) override {
    return base_->FileExists(fname);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override {
    return base_->RemoveFile(fname);
  }
  Status CreateDir(const std::string& dirname) override {
    return base_->CreateDir(dirname);
  }
  Status RemoveDir(const std::string& dirname) override {
    return base_->RemoveDir(dirname);
  }
  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    return base_->GetFileSize(fname, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& target) override {
    return base_->RenameFile(src, target);
  }

  EnvCounts Snapshot() const override {
    EnvCounts out;
    for (int t = 0; t < 2; t++) {
      for (int c = 0; c < kNumFileClasses; c++) {
        const AtomicClass& a = shared_.counts[t][c];
        EnvCounts::Class& o = out.by_thread[t][c];
#define LOAD_FIELD(f) o.f = a.f.load(std::memory_order_relaxed);
        ENV_CLASS_FIELDS(LOAD_FIELD)
#undef LOAD_FIELD
      }
    }
    return out;
  }

 private:
  Env* base_;
  EnvShared shared_;
};

class CountingObjectStoreImpl final : public CountingObjectStore {
 public:
  explicit CountingObjectStoreImpl(ObjectStore* base) : base_(base) {}

  Status Put(const std::string& key, const Slice& data) override {
    const uint64_t start = TracingOn() ? NowNanos() : 0;
    Status s = base_->Put(key, data);
    Add(puts_, 1);
    Add(put_bytes_, data.size());
    Finish(kSpanCloudPut, start);
    return s;
  }

  Status Get(const std::string& key, std::string* data) override {
    const uint64_t start = TracingOn() ? NowNanos() : 0;
    Status s = base_->Get(key, data);
    CountGet(s.ok() ? data->size() : 0, start);
    return s;
  }

  Status GetRange(const std::string& key, uint64_t offset, size_t n,
                  std::string* data) override {
    const uint64_t start = TracingOn() ? NowNanos() : 0;
    Status s = base_->GetRange(key, offset, n, data);
    CountGet(s.ok() ? data->size() : 0, start);
    return s;
  }

  Status Head(const std::string& key, ObjectMeta* meta) override {
    const uint64_t start = TracingOn() ? NowNanos() : 0;
    Status s = base_->Head(key, meta);
    Add(heads_, 1);
    Finish(kSpanCloudOther, start);
    return s;
  }
  Status Delete(const std::string& key) override {
    const uint64_t start = TracingOn() ? NowNanos() : 0;
    Status s = base_->Delete(key);
    Add(deletes_, 1);
    Finish(kSpanCloudOther, start);
    return s;
  }
  Status List(const std::string& prefix,
              std::vector<ObjectMeta>* result) override {
    const uint64_t start = TracingOn() ? NowNanos() : 0;
    Status s = base_->List(prefix, result);
    Add(lists_, 1);
    Finish(kSpanCloudOther, start);
    return s;
  }

  OpCounters Counters() const override { return base_->Counters(); }
  uint64_t BytesStored() const override { return base_->BytesStored(); }

  CloudCounts Snapshot() const override {
    CloudCounts c;
    for (int t = 0; t < 2; t++) {
      c.gets[t] = gets_[t].load(std::memory_order_relaxed);
      c.get_bytes[t] = get_bytes_[t].load(std::memory_order_relaxed);
      c.get_ns[t] = get_ns_[t].load(std::memory_order_relaxed);
    }
    c.puts = puts_.load(std::memory_order_relaxed);
    c.put_bytes = put_bytes_.load(std::memory_order_relaxed);
    c.heads = heads_.load(std::memory_order_relaxed);
    c.deletes = deletes_.load(std::memory_order_relaxed);
    c.lists = lists_.load(std::memory_order_relaxed);
    return c;
  }

 private:
  void CountGet(uint64_t bytes, uint64_t start) {
    const int t = t_client ? 0 : 1;
    Add(gets_[t], 1);
    Add(get_bytes_[t], bytes);
    Add(get_ns_[t], Finish(kSpanCloudGet, start));
  }

  uint64_t Finish(uint16_t name, uint64_t start) {
    if (start == 0) return 0;
    const uint64_t end = NowNanos();
    RecordSpan(name, start, end);
    if (t_children != nullptr) t_children->cloud_ns += end - start;
    return end - start;
  }

  ObjectStore* base_;
  std::atomic<uint64_t> gets_[2]{}, get_bytes_[2]{}, get_ns_[2]{};
  std::atomic<uint64_t> puts_{0}, put_bytes_{0}, heads_{0}, deletes_{0},
      lists_{0};
};

}  // namespace

const char* FileClassName(int c) {
  static const char* const kNames[kNumFileClasses] = {
      "sst", "wal", "manifest", "pcache", "meta", "other"};
  return c >= 0 && c < kNumFileClasses ? kNames[c] : "other";
}

FileClass ClassifyFile(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (EndsWith(base, ".sst") || EndsWith(base, ".tmp")) return kSst;
  if (EndsWith(base, ".log") || base.rfind("ewal-", 0) == 0) return kWal;
  if (base.rfind("MANIFEST-", 0) == 0 || base == "CURRENT") return kManifest;
  if (EndsWith(base, ".cache")) return kPcache;
  if (EndsWith(base, ".meta")) return kMeta;
  return kOther;
}

void MarkClientThread() { t_client = true; }

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingOn() { return g_tracing.load(std::memory_order_relaxed); }

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

EnvCounts::Class EnvCounts::Total(int file_class) const {
  Class out;
  for (const auto& side : by_thread) {
    const Class& c = side[file_class];
#define SUM_FIELD(f) out.f += c.f;
    ENV_CLASS_FIELDS(SUM_FIELD)
#undef SUM_FIELD
  }
  return out;
}

EnvCounts EnvCounts::operator-(const EnvCounts& base) const {
  EnvCounts out;
  for (int t = 0; t < 2; t++) {
    for (int c = 0; c < kNumFileClasses; c++) {
      const Class& a = by_thread[t][c];
      const Class& b = base.by_thread[t][c];
      Class& o = out.by_thread[t][c];
#define SUB_FIELD(f) o.f = a.f - b.f;
      ENV_CLASS_FIELDS(SUB_FIELD)
#undef SUB_FIELD
    }
  }
  return out;
}

ObjectStore::OpCounters CloudCounts::AsOpCounters() const {
  ObjectStore::OpCounters o;
  o.puts = puts;
  o.gets = TotalGets();
  o.heads = heads;
  o.deletes = deletes;
  o.lists = lists;
  o.bytes_uploaded = put_bytes;
  o.bytes_downloaded = get_bytes[0] + get_bytes[1];
  return o;
}

CloudCounts CloudCounts::operator-(const CloudCounts& base) const {
  CloudCounts out;
  for (int t = 0; t < 2; t++) {
    out.gets[t] = gets[t] - base.gets[t];
    out.get_bytes[t] = get_bytes[t] - base.get_bytes[t];
    out.get_ns[t] = get_ns[t] - base.get_ns[t];
  }
  out.puts = puts - base.puts;
  out.put_bytes = put_bytes - base.put_bytes;
  out.heads = heads - base.heads;
  out.deletes = deletes - base.deletes;
  out.lists = lists - base.lists;
  return out;
}

std::unique_ptr<CountingEnv> NewCountingEnv(Env* base) {
  return std::make_unique<CountingEnvImpl>(base);
}

std::unique_ptr<CountingObjectStore> NewCountingObjectStore(ObjectStore* base) {
  return std::make_unique<CountingObjectStoreImpl>(base);
}

uint64_t DirBytes(Env* env, const std::string& dir) {
  std::vector<std::string> children;
  if (!env->GetChildren(dir, &children).ok()) return 0;
  uint64_t total = 0;
  for (const auto& child : children) {
    const std::string path = dir + "/" + child;
    std::vector<std::string> grandchildren;
    if (env->GetChildren(path, &grandchildren).ok() && !grandchildren.empty()) {
      total += DirBytes(env, path);
      continue;
    }
    uint64_t size = 0;
    if (env->GetFileSize(path, &size).ok()) total += size;
  }
  return total;
}

const char* OpKindName(int k) {
  static const char* const kNames[kNumOpKinds] = {"get", "scan", "put"};
  return k >= 0 && k < kNumOpKinds ? kNames[k] : "op";
}

void OpBreakdown::Add(const OpBreakdown& other) {
  ops += other.ops;
  span_ns += other.span_ns;
  self_ns += other.self_ns;
  negative_self += other.negative_self;
  for (int c = 0; c < kNumFileClasses; c++) {
    children.env_ns[c] += other.children.env_ns[c];
    children.env_reads[c] += other.children.env_reads[c];
  }
  children.cloud_ns += other.children.cloud_ns;
}

OpScope::OpScope(OpKind kind, OpBreakdown* sink) : kind_(kind), sink_(sink) {
  if (!TracingOn()) return;
  t_op_id = g_next_op_id.fetch_add(1, std::memory_order_relaxed);
  t_children = &children_;
  start_ns_ = NowNanos();
}

OpScope::~OpScope() {
  if (start_ns_ == 0) return;
  const uint64_t end = NowNanos();
  t_children = nullptr;
  OpBreakdown one;
  one.ops = 1;
  one.span_ns = end - start_ns_;
  one.children = children_;
  uint64_t child = children_.cloud_ns;
  for (uint64_t ns : children_.env_ns) child += ns;
  if (child > one.span_ns) {
    one.negative_self = 1;
  } else {
    one.self_ns = one.span_ns - child;
  }
  sink_->Add(one);
  RecordSpan(static_cast<uint16_t>(kSpanOpBase + static_cast<int>(kind_)),
             start_ns_, end);
  t_op_id = 0;
}

const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (int k = 0; k < kNumOpKinds; k++) {
      n.push_back(std::string("op.") + OpKindName(k));
    }
    static const char* const kIo[4] = {"open", "read", "write", "sync"};
    for (int c = 0; c < kNumFileClasses; c++) {
      for (const char* io : kIo) {
        n.push_back(std::string("env.") + FileClassName(c) + "." + io);
      }
    }
    n.push_back("cloud.get");
    n.push_back("cloud.put");
    n.push_back("cloud.other");
    return n;
  }();
  return names;
}

void ClearSpans(size_t cap) {
  std::lock_guard<std::mutex> l(g_span_mu);
  for (auto& buf : g_span_bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    buf->spans.clear();
    buf->spans.shrink_to_fit();
  }
  g_span_used.store(0, std::memory_order_relaxed);
  g_span_dropped.store(0, std::memory_order_relaxed);
  g_span_cap.store(cap, std::memory_order_relaxed);
}

std::vector<SpanRecord> CollectSpans() {
  std::vector<SpanRecord> out;
  std::lock_guard<std::mutex> l(g_span_mu);
  for (auto& buf : g_span_bufs) {
    std::lock_guard<std::mutex> bl(buf->mu);
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

uint64_t DroppedSpans() {
  return g_span_dropped.load(std::memory_order_relaxed);
}

}  // namespace perfbench
