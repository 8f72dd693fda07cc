// The telemetry writer's line-atomicity contract: a concurrent reader
// that opens the file by name only ever observes complete lines — each
// JSONL line, trailing newline included, is one in-page write(2) or
// arrives with a rename when it would cross a page boundary. A reader
// hammering the file while a writer appends must never see a torn line,
// and every line it does see must be byte-for-byte the writer's output.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "obs/telemetry.hpp"
#include "util/fsio.hpp"

namespace pssp {
namespace {

obs::round_summary summary_for(std::uint64_t round) {
    obs::round_summary s;
    s.round = round;
    s.blocks = 2 + round % 3;
    s.trials = 64 * (round + 1);
    s.cumulative_trials = 64 * (round + 1) * (round + 2) / 2;
    s.max_halfwidth = 1.0 / static_cast<double>(round + 2);
    s.widest_cell = "nginx_m/SSP/leak_replay";
    s.wall_seconds = 0.25 * static_cast<double>(round % 7);
    if (round % 2 == 0) {
        s.shards.push_back({0, 0.5, 0.25, 0.125, {}});
        s.shards.push_back({1, 0.75, 0.5, 0.125, {}});
    }
    s.retries = round % 5;
    s.requeued_blocks = round % 4;
    s.resumed = round % 6 == 0;
    return s;
}

TEST(obs_telemetry_atomic, file_is_the_exact_line_concatenation) {
    const std::string path = ::testing::TempDir() + "pssp-telemetry-" +
                             std::to_string(::getpid()) + "-exact.jsonl";
    std::string expected;
    {
        obs::telemetry_writer writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t r = 0; r < 32; ++r) {
            writer.append(summary_for(r));
            expected += obs::round_summary_json(summary_for(r)) + "\n";
        }
    }
    std::string on_disk;
    ASSERT_TRUE(util::read_file(path, on_disk));
    EXPECT_EQ(on_disk, expected);
}

TEST(obs_telemetry_atomic, concurrent_reader_never_sees_a_torn_line) {
    const std::string path = ::testing::TempDir() + "pssp-telemetry-" +
                             std::to_string(::getpid()) + "-race.jsonl";
    ::unlink(path.c_str());  // the reader must never see a stale file
    constexpr std::uint64_t kRounds = 400;

    // Precompute what every line must look like; the reader checks each
    // observed line against this table by index.
    std::vector<std::string> lines;
    for (std::uint64_t r = 0; r < kRounds; ++r)
        lines.push_back(obs::round_summary_json(summary_for(r)));

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> torn{0}, mismatched{0}, observed{0};

    std::thread reader{[&] {
        // pread from offset 0 each pass: every pass races a fresh read
        // window against in-flight appends.
        std::string buf;
        while (true) {
            const bool writer_done = done.load(std::memory_order_acquire);
            const int fd = ::open(path.c_str(), O_RDONLY);
            if (fd >= 0) {
                buf.clear();
                char chunk[4096];
                ssize_t n;
                while ((n = ::read(fd, chunk, sizeof chunk)) > 0)
                    buf.append(chunk, static_cast<std::size_t>(n));
                ::close(fd);

                std::size_t start = 0, index = 0;
                while (true) {
                    const auto nl = buf.find('\n', start);
                    if (nl == std::string::npos) break;
                    const auto line = buf.substr(start, nl - start);
                    if (index >= lines.size() || line != lines[index])
                        mismatched.fetch_add(1);
                    observed.fetch_add(1);
                    start = nl + 1;
                    ++index;
                }
                // Anything after the last newline would be a torn line:
                // the single-write(2) contract says it cannot exist.
                if (start != buf.size()) torn.fetch_add(1);
            }
            if (writer_done) break;
        }
    }};

    {
        obs::telemetry_writer writer;
        ASSERT_TRUE(writer.open(path));
        for (std::uint64_t r = 0; r < kRounds; ++r)
            writer.append(summary_for(r));
    }
    done.store(true, std::memory_order_release);
    reader.join();

    EXPECT_EQ(torn.load(), 0u) << "reader saw a partial line";
    EXPECT_EQ(mismatched.load(), 0u);
    // The final pass (after the writer closed) saw the whole file.
    EXPECT_GE(observed.load(), kRounds);
}

}  // namespace
}  // namespace pssp
