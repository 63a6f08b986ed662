// A file in the gtest temp dir that is removed when its TempPath goes
// out of scope, so a test that stops early at an ASSERT_* leaves nothing
// behind either.
#ifndef RESIM_TESTS_TEMP_PATH_H
#define RESIM_TESTS_TEMP_PATH_H

#include <cstdio>
#include <string>
#include <utility>

#include <gtest/gtest.h>

namespace resim {

class TempPath {
 public:
  explicit TempPath(const std::string& leaf) : path_(::testing::TempDir() + "/" + leaf) {}
  TempPath(TempPath&& other) noexcept : path_(std::exchange(other.path_, {})) {}
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;
  ~TempPath() {
    if (!path_.empty()) std::remove(path_.c_str());
  }

  /// The path itself, wherever a std::string is expected.
  operator const std::string&() const { return path_; }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

}  // namespace resim

#endif  // RESIM_TESTS_TEMP_PATH_H
