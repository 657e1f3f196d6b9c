// page-churn: page requests straight into a 2-shard striped region, with no
// DBMS layer above. PageModel is the benchmark's own record of what every
// page should hold; every read is checked against it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Expected page contents. A page written for (key, version) holds a
/// 16-byte header (key, version, magic) followed by the body of one of a
/// few seeded random patterns picked by version, so a check compares the
/// whole page without storing a copy of every page.
class PageModel {
 public:
  PageModel(uint32_t page_size, uint64_t keys, uint64_t seed);

  uint32_t page_size() const { return page_size_; }
  uint64_t keys() const { return versions_.size(); }
  uint32_t version(uint64_t key) const { return versions_[key]; }

  /// Bump `key` to its next version and fill `buf` with that content.
  void NextWrite(uint64_t key, char* buf);
  /// Content of `key` at `version` (for tests that forge pages).
  void Fill(uint64_t key, uint32_t version, char* buf) const;
  /// Empty string when `buf` is exactly what `key` should hold now;
  /// otherwise a one-line description of the mismatch.
  std::string Check(uint64_t key, const char* buf) const;

 private:
  static constexpr int kPatterns = 8;
  uint32_t page_size_;
  std::vector<std::vector<char>> patterns_;
  std::vector<uint32_t> versions_;  ///< 0 = never written
};

}  // namespace perfbench
