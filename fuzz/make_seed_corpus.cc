// Generates the checked-in seed corpora under fuzz/corpus/. Each target
// gets a handful of well-formed artifacts produced by the real writers
// (BlockBuilder, log::Writer, Wal, VersionEdit::EncodeTo) plus deterministic
// truncations and bit-flips so the corpora cover both happy and corrupt
// paths from the first fuzz iteration.
//
// Usage: make_seed_corpus <output-dir>   (creates <output-dir>/<target>/*)
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "env/env.h"
#include "lsm/filename.h"
#include "lsm/log_writer.h"
#include "lsm/version_edit.h"
#include "lsm/wal.h"
#include "lsm/write_batch.h"
#include "table/blob_file.h"
#include "table/blob_format.h"
#include "table/block_builder.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/slice.h"
#include "util/status.h"

namespace {

using namespace rocksmash;

// Minimal WritableFile that accumulates into a string, for running the real
// log::Writer without touching the filesystem.
class StringFile final : public WritableFile {
 public:
  Status Append(const Slice& data) override {
    contents_.append(data.data(), data.size());
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }
  Status Flush() override { return Status::OK(); }
  Status Sync() override { return Status::OK(); }
  const std::string& contents() const { return contents_; }

 private:
  std::string contents_;
};

void WriteFile(const std::filesystem::path& dir, const std::string& name,
               const std::string& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", (dir / name).c_str());
    std::exit(1);
  }
}

// Emit `base` plus a truncated and a bit-flipped variant.
void EmitWithMutations(const std::filesystem::path& dir,
                       const std::string& stem, const std::string& base) {
  WriteFile(dir, stem + "-valid.bin", base);
  if (base.size() > 3) {
    WriteFile(dir, stem + "-truncated.bin", base.substr(0, base.size() / 2));
    std::string flipped = base;
    flipped[flipped.size() / 3] ^= 0x40;
    WriteFile(dir, stem + "-bitflip.bin", flipped);
  }
}

std::string BuildDataBlock() {
  BlockBuilder builder(/*restart_interval=*/4);
  for (int i = 0; i < 32; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    builder.Add(Slice(key), Slice("value-payload-for-seed-corpus"));
  }
  return builder.Finish().ToString();
}

std::string WithTrailer(const std::string& block) {
  std::string out = block;
  char trailer[kBlockTrailerSize];
  trailer[0] = kNoCompression;
  uint32_t crc = crc32c::Value(block.data(), block.size());
  crc = crc32c::Extend(crc, trailer, 1);
  EncodeFixed32(trailer + 1, crc32c::Mask(crc));
  out.append(trailer, kBlockTrailerSize);
  return out;
}

std::string BuildFooter() {
  Footer footer;
  footer.set_filter_handle(BlockHandle(0, 128));
  footer.set_index_handle(BlockHandle(133, 64));
  std::string out;
  footer.EncodeTo(&out);
  return out;
}

std::string BuildWalLog() {
  StringFile file;
  log::Writer writer(&file);
  for (int i = 0; i < 8; i++) {
    WriteBatch batch;
    char key[16];
    std::snprintf(key, sizeof(key), "wal%04d", i);
    batch.Put(Slice(key), Slice("wal-value"));
    if (i % 3 == 0) batch.Delete(Slice(key));
    WriteBatchInternal::SetSequence(&batch, 100 + static_cast<uint64_t>(i));
    Status s = writer.AddRecord(WriteBatchInternal::Contents(&batch));
    if (!s.ok()) std::exit(1);
  }
  // One oversized record that fragments across log blocks.
  WriteBatch big;
  big.Put(Slice("big-key"), Slice(std::string(40000, 'x')));
  WriteBatchInternal::SetSequence(&big, 200);
  Status s = writer.AddRecord(WriteBatchInternal::Contents(&big));
  if (!s.ok()) std::exit(1);
  return file.contents();
}

// The one segment of a one-segment log, written by the engine's Wal: small
// batches only, so its framing differs from BuildWalLog's.
std::string BuildOneSegmentLog() {
  std::unique_ptr<Env> env = NewMemEnv();
  Wal wal(env.get(), "/seed", /*segments=*/1);
  if (!wal.NewLog(1).ok()) std::exit(1);
  for (int i = 0; i < 16; i++) {
    WriteBatch batch;
    char key[16];
    std::snprintf(key, sizeof(key), "seg%04d", i);
    batch.Put(Slice(key), Slice("one-segment-value"));
    WriteBatchInternal::SetSequence(&batch, 1 + static_cast<uint64_t>(i));
    if (!wal.AddRecord(WriteBatchInternal::Contents(&batch)).ok()) {
      std::exit(1);
    }
  }
  std::string contents;
  if (!wal.CloseLog().ok() ||
      !ReadFileToString(env.get(), EWalFileName("/seed", 1, 0), &contents)
           .ok()) {
    std::exit(1);
  }
  return contents;
}

std::string BuildManifestLog() {
  StringFile file;
  log::Writer writer(&file);
  VersionEdit edit;
  edit.SetComparatorName(Slice("rocksmash.BytewiseComparator"));
  edit.SetLogNumber(12);
  edit.SetNextFile(42);
  edit.SetLastSequence(999);
  edit.AddFile(0, 17, 4096, InternalKey(Slice("a"), 1, kTypeValue),
               InternalKey(Slice("m"), 5, kTypeValue));
  edit.AddFile(1, 18, 8192, InternalKey(Slice("n"), 2, kTypeValue),
               InternalKey(Slice("z"), 6, kTypeValue));
  edit.RemoveFile(1, 9);
  std::string record;
  edit.EncodeTo(&record);
  if (!writer.AddRecord(Slice(record)).ok()) std::exit(1);

  VersionEdit edit2;
  edit2.SetLogNumber(13);
  edit2.SetNextFile(43);
  std::string record2;
  edit2.EncodeTo(&record2);
  if (!writer.AddRecord(Slice(record2)).ok()) std::exit(1);
  return file.contents();
}

// A complete blob file with a few records, built by the real
// BlobFileBuilder (compression off so the bytes are deterministic).
std::string BuildBlobFile() {
  StringFile file;
  BlobFileBuilder builder(/*file_number=*/7, &file, kNoCompression);
  for (int i = 0; i < 4; i++) {
    BlobIndex index;
    std::string value(200 + 100 * i, static_cast<char>('a' + i));
    Status s = builder.Add(Slice(value), &index);
    if (!s.ok()) std::exit(1);
  }
  if (!builder.Finish().ok()) std::exit(1);
  return file.contents();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output-dir>\n", argv[0]);
    return 2;
  }
  namespace fs = std::filesystem;
  const fs::path root(argv[1]);

  const fs::path sst = root / "fuzz_sst_format";
  fs::create_directories(sst);
  EmitWithMutations(sst, "block", WithTrailer(BuildDataBlock()));
  EmitWithMutations(sst, "block-naked", BuildDataBlock());
  EmitWithMutations(sst, "footer", BuildFooter());

  const fs::path wal = root / "fuzz_wal";
  fs::create_directories(wal);
  EmitWithMutations(wal, "wal", BuildWalLog());

  // The eWAL harness splits its input in half across two segments and also
  // replays it whole as one segment: a doubled log gives both halves intact
  // framing, a one-segment log gives the whole-input replay intact framing.
  const fs::path ewal = root / "fuzz_ewal";
  fs::create_directories(ewal);
  const std::string wal_log = BuildWalLog();
  EmitWithMutations(ewal, "segments", wal_log + wal_log);
  EmitWithMutations(ewal, "one-segment", BuildOneSegmentLog());

  const fs::path manifest = root / "fuzz_manifest";
  fs::create_directories(manifest);
  EmitWithMutations(manifest, "manifest", BuildManifestLog());
  // Raw (un-framed) VersionEdit record, for the direct DecodeFrom stage.
  VersionEdit edit;
  edit.SetLogNumber(3);
  edit.SetNextFile(4);
  edit.SetLastSequence(5);
  std::string raw;
  edit.EncodeTo(&raw);
  EmitWithMutations(manifest, "raw-edit", raw);

  const fs::path blob = root / "fuzz_blob";
  fs::create_directories(blob);
  EmitWithMutations(blob, "blobfile", BuildBlobFile());
  // A lone footer and a lone encoded BlobIndex, for the direct decoders.
  {
    BlobFileFooter footer;
    footer.record_count = 4;
    footer.payload_bytes = 1400;
    std::string footer_bytes;
    footer.EncodeTo(&footer_bytes);
    EmitWithMutations(blob, "footer", footer_bytes);
    BlobIndex index;
    index.file_number = 7;
    index.offset = kBlobHeaderSize;
    index.size = 200;
    std::string index_bytes;
    index.EncodeTo(&index_bytes);
    EmitWithMutations(blob, "index", index_bytes);
  }

  std::printf("seed corpora written under %s\n", root.c_str());
  return 0;
}
