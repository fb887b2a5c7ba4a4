/// \file scratch_dir.hpp
/// \brief A per-test temporary directory for tests that write files.
///
/// Tests that round-trip checkpoints or tables write them here, never
/// into the working directory: the directory is unique to the test and
/// is removed, with everything in it, when the ScratchDir goes out of
/// scope.

#pragma once

#include <stdlib.h>  // mkdtemp

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>

namespace fhp::test {

class ScratchDir {
 public:
  ScratchDir() {
    std::string pattern =
        (std::filesystem::temp_directory_path() / "flashhp-test-XXXXXX")
            .string();
    if (::mkdtemp(pattern.data()) == nullptr) {
      throw std::filesystem::filesystem_error(
          "cannot create a scratch directory", pattern,
          std::error_code(errno, std::generic_category()));
    }
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  /// The path of \p name inside the directory.
  [[nodiscard]] std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

}  // namespace fhp::test
