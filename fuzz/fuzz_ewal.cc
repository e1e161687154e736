// Fuzz eWAL recovery: the input is replayed through the Wal::Replay
// pipeline (per-segment log::Reader framing + WriteBatch decode) twice,
// exactly as crash recovery would consume a torn log: split across two
// segment files of one logical log, and whole as the only segment of a
// one-segment log.
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "util/slice.h"
#include "util/status.h"

namespace {

constexpr size_t kMaxInput = 1 << 16;

class NullHandler : public rocksmash::WriteBatch::Handler {
 public:
  void Put(const rocksmash::Slice& key, const rocksmash::Slice& value) override {
    bytes_ += key.size() + value.size();
  }
  void Delete(const rocksmash::Slice& key) override { bytes_ += key.size(); }

 private:
  size_t bytes_ = 0;
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size > kMaxInput) return 0;
  using namespace rocksmash;

  std::unique_ptr<Env> env = NewMemEnv();
  const std::string dbname = "/fuzz-ewal";
  if (!env->CreateDir(dbname).ok()) return 0;

  const auto apply = [](const Slice& record, int /*shard*/) {
    if (record.size() < 12) {
      return Status::Corruption("ewal record too small");
    }
    WriteBatch batch;
    WriteBatchInternal::SetContents(&batch, record);
    NullHandler handler;
    return batch.Iterate(&handler);
  };

  // Stripe the input over two segments the way the writer round-robins
  // records: first half to segment 0, second half to segment 1.
  constexpr uint64_t kTwoSegmentLog = 7;
  const size_t half = size / 2;
  const Slice whole(reinterpret_cast<const char*>(data), size);
  const Slice seg0(whole.data(), half);
  const Slice seg1(whole.data() + half, size - half);
  if (!WriteStringToFile(env.get(), seg0,
                         EWalFileName(dbname, kTwoSegmentLog, 0))
           .ok() ||
      !WriteStringToFile(env.get(), seg1,
                         EWalFileName(dbname, kTwoSegmentLog, 1))
           .ok()) {
    return 0;
  }
  Wal two(env.get(), dbname, /*segments=*/2);
  // why unchecked: Corruption from a torn segment is an expected outcome;
  // the harness only guards against crashes and hangs.
  two.Replay(kTwoSegmentLog, apply).PermitUncheckedError();

  // The same bytes as the whole of a one-segment log.
  constexpr uint64_t kOneSegmentLog = 8;
  if (!WriteStringToFile(env.get(), whole,
                         EWalFileName(dbname, kOneSegmentLog, 0))
           .ok()) {
    return 0;
  }
  Wal one(env.get(), dbname, /*segments=*/1);
  // why unchecked: as above.
  one.Replay(kOneSegmentLog, apply).PermitUncheckedError();
  return 0;
}
