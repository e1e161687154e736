// Self-describing keys and values, so every value the store returns can be
// checked without a reference copy:
//
//   key   "user" + 20-digit decimal index                  (24 bytes)
//   value [index u64][version u64][checksum u64][filler]  (400 bytes)
//
// The filler is a pseudo-random stream of (seed, index, version), so values
// do not compress. The checksum covers index, version and filler; checking
// a value is one pass over its 50 words, a small fraction of a local Get.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "util/slice.h"

namespace perfbench {

inline constexpr size_t kKeySize = 24;
inline constexpr size_t kValueSize = 400;
inline constexpr size_t kHeaderSize = 24;

inline uint64_t Mix64(uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

inline void EncodeKey(uint64_t index, char* out /* kKeySize + 1 */) {
  std::snprintf(out, kKeySize + 1, "user%020llu",
                static_cast<unsigned long long>(index));
}

inline std::string KeyFor(uint64_t index) {
  char buf[kKeySize + 1];
  EncodeKey(index, buf);
  return std::string(buf, kKeySize);
}

// Parses a key written by EncodeKey; false if it is not one.
inline bool DecodeKey(const rocksmash::Slice& key, uint64_t* index) {
  if (key.size() != kKeySize || std::memcmp(key.data(), "user", 4) != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < kKeySize; i++) {
    const char c = key[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *index = v;
  return true;
}

inline uint64_t ValueChecksum(const char* value) {
  uint64_t h = 0x243f6a8885a308d3ull;
  for (size_t off = 0; off < kValueSize; off += 8) {
    if (off == 16) continue;  // the checksum word itself
    h = (h ^ Load64(value + off)) * 0x100000001b3ull;
    h ^= h >> 29;
  }
  return h;
}

inline void EncodeValue(uint64_t seed, uint64_t index, uint64_t version,
                        char* out /* kValueSize */) {
  Store64(out, index);
  Store64(out + 8, version);
  uint64_t state = Mix64(seed ^ Mix64(index ^ Mix64(version)));
  for (size_t off = kHeaderSize; off < kValueSize; off += 8) {
    state = Mix64(state);
    Store64(out + off, state);
  }
  Store64(out + 16, ValueChecksum(out));
}

// True iff `value` is an intact value of key `index` at `version`.
inline bool CheckValue(const rocksmash::Slice& value, uint64_t index,
                       uint64_t version) {
  return value.size() == kValueSize && Load64(value.data()) == index &&
         Load64(value.data() + 8) == version &&
         Load64(value.data() + 16) == ValueChecksum(value.data());
}

}  // namespace perfbench
