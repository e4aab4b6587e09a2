// ScratchDir: a temporary directory for one test process.
//
// The path is <testing::TempDir()>/histpc_<name>_<pid>, so two test runs at
// once (ctest in two build trees, say) never share a directory, and the
// directory is removed when the object goes out of scope. It is created
// empty.
#pragma once

#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

#include <gtest/gtest.h>

namespace histpc::testing_support {

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_(std::filesystem::path(::testing::TempDir()) /
              ("histpc_" + name + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;  // best effort: a destructor must not throw
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// The directory itself.
  std::string str() const { return path_.string(); }
  /// Path of `leaf` inside the directory.
  std::string file(const std::string& leaf) const { return (path_ / leaf).string(); }

 private:
  std::filesystem::path path_;
};

}  // namespace histpc::testing_support
