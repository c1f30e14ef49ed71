// Raw binary field I/O for the serving layer's on-disk encodings (the
// quantile sketch and the fleet checkpoint): every field is written as its
// in-memory little-endian bytes, and every read is exact-size, so a torn or
// truncated stream fails a get instead of yielding a partial value.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <type_traits>
#include <vector>

namespace fcad::util {

template <typename T>
void put_raw(std::ostream& os, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  os.write(buf, sizeof v);
}

template <typename T>
bool get_raw(std::istream& in, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  char buf[sizeof v];
  in.read(buf, sizeof v);
  if (in.gcount() != static_cast<std::streamsize>(sizeof v)) return false;
  std::memcpy(&v, buf, sizeof v);
  return true;
}

/// A u64 element count followed by the elements' raw bytes.
template <typename T>
void put_raw_vector(std::ostream& os, const std::vector<T>& values) {
  static_assert(std::is_arithmetic_v<T>);
  put_raw(os, static_cast<std::uint64_t>(values.size()));
  os.write(reinterpret_cast<const char*>(values.data()),
           static_cast<std::streamsize>(values.size() * sizeof(T)));
}

/// Reads put_raw_vector's encoding. The count comes from an untrusted
/// file, so the vector grows in bounded chunks: a corrupt count fails the
/// read at end of input instead of allocating for it up front.
template <typename T>
bool get_raw_vector(std::istream& in, std::vector<T>& values) {
  static_assert(std::is_arithmetic_v<T>);
  std::uint64_t remaining = 0;
  if (!get_raw(in, remaining)) return false;
  values.clear();
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 16;
  while (remaining > 0) {
    const auto n = static_cast<std::size_t>(std::min(remaining, kChunk));
    const std::size_t old = values.size();
    values.resize(old + n);
    const auto bytes = static_cast<std::streamsize>(n * sizeof(T));
    in.read(reinterpret_cast<char*>(values.data() + old), bytes);
    if (in.gcount() != bytes) return false;
    remaining -= n;
  }
  return true;
}

}  // namespace fcad::util
