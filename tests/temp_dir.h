// A directory made under /tmp for one test and removed, with everything in
// it, when the test ends however it ends: an ASSERT that returns early
// cleans up too. Fork drives make it in the parent before the fork; their
// children leave by _exit or SIGKILL, so only the parent removes it.

#ifndef PRIMA_TESTS_TEMP_DIR_H_
#define PRIMA_TESTS_TEMP_DIR_H_

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace prima {

class TempDir {
 public:
  /// Makes /tmp/<prefix>XXXXXX; path() is empty when that failed.
  explicit TempDir(const std::string& prefix) {
    std::string name = "/tmp/" + prefix + "XXXXXX";
    if (::mkdtemp(name.data()) != nullptr) path_ = name;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace prima

#endif  // PRIMA_TESTS_TEMP_DIR_H_
