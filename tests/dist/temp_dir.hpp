// A private directory per test for the files the orchestrator leaves
// behind (obs-postmortem-<shard>.json, flight records). The dist test
// binaries all write the same names, so under `ctest -j` one binary could
// read or unlink another's file if they shared ::testing::TempDir().
#pragma once

#include <cerrno>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>
#include <stdlib.h>

namespace pssp::testing_util {

// mkdtemp()s a fresh directory under ::testing::TempDir(); every directory
// made this way is removed when the test binary exits.
inline std::string unique_temp_dir() {
    struct cleanup {
        std::vector<std::string> dirs;
        ~cleanup() {
            for (const auto& dir : dirs) {
                std::error_code ignored;
                std::filesystem::remove_all(dir, ignored);
            }
        }
    };
    static cleanup made;
    std::string path = ::testing::TempDir() + "pssp-dist-XXXXXX";
    if (::mkdtemp(path.data()) == nullptr)
        throw std::system_error{errno, std::generic_category(), "mkdtemp " + path};
    made.dirs.push_back(path);
    return path;
}

}  // namespace pssp::testing_util
