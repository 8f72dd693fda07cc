// Crash-resumable checkpoints, end to end: checkpointed sharded runs
// (real fork/exec workers), log truncation to simulate an orchestrator
// death mid-campaign, and --resume producing a byte-identical report
// while re-running only the missing work. Pins the corruption contract:
// a truncated line, a flipped hexfloat digit, and a foreign spec digest
// each fail resume loudly with a position-bearing error — silent resume
// from damaged state is impossible.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/checkpoint.hpp"
#include "dist/orchestrator.hpp"
#include "dist/temp_dir.hpp"
#include "obs/telemetry.hpp"

namespace pssp {
namespace {

// A unique empty directory under the gtest temp root; checkpoint_log
// creates the directory itself when missing, so handing it a fresh path
// (not yet created) exercises that too.
std::string fresh_dir(const char* tag) {
    static int serial = 0;
    return ::testing::TempDir() + "pssp-ckpt-" + tag + "-" +
           std::to_string(::getpid()) + "-" + std::to_string(serial++);
}

std::string read_file(const std::string& path) {
    std::ifstream in{path, std::ios::binary};
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void write_file(const std::string& path, const std::string& content) {
    std::ofstream out{path, std::ios::binary | std::ios::trunc};
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << content;
}

std::size_t line_count(const std::string& text) {
    std::size_t n = 0;
    for (const char c : text)
        if (c == '\n') ++n;
    return n;
}

// Keeps only the first checkpoint log entry: the on-disk state of an
// orchestrator that died after its first durable unit.
void truncate_to_first_line(const std::string& path) {
    const auto content = read_file(path);
    const auto nl = content.find('\n');
    ASSERT_NE(nl, std::string::npos) << path << " has no complete line";
    write_file(path, content.substr(0, nl + 1));
}

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 6;
    spec.master_seed = 29;
    spec.query_budget = 512;
    return spec;
}

dist::sharded_options checkpointed_options(const std::string& dir) {
    dist::sharded_options options;
    options.shards = 2;
    options.flight_recorder = false;
    options.postmortem_dir = testing_util::unique_temp_dir();
    options.checkpoint_dir = dir;
    return options;
}

TEST(dist_checkpoint, fixed_resume_is_byte_identical) {
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto dir = fresh_dir("fixed");
    auto options = checkpointed_options(dir);

    // A checkpointed run changes nothing about the report...
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    // ...and leaves one durable entry per shard job behind.
    const auto log_path = dir + "/rounds.log";
    EXPECT_EQ(line_count(read_file(log_path)), 2u);

    // Kill the run after one durable unit; resume re-runs only the rest.
    truncate_to_first_line(log_path);
    options.resume = true;
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    // The resumed run appended what it re-ran: the log is complete again,
    // so a second resume replays everything and spawns no workers.
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
}

TEST(dist_checkpoint, adaptive_resume_is_byte_identical) {
    // Two deterministic rounds (target 0 never converges; 4 blocks at 2
    // per round). The durable unit is one accepted round; resume replays
    // round 1 through the allocator and runs only round 2.
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.trials_per_cell = 96;
    spec.round_blocks = 2;
    spec.min_trials_per_cell = 32;
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto dir = fresh_dir("adaptive");
    auto options = checkpointed_options(dir);

    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    const auto log_path = dir + "/rounds.log";
    EXPECT_EQ(line_count(read_file(log_path)), 2u);

    truncate_to_first_line(log_path);
    options.resume = true;
    std::vector<obs::round_summary> rounds;
    options.round_observer = [&rounds](const obs::round_summary& r) {
        rounds.push_back(r);
    };
    EXPECT_EQ(dist::run_sharded(spec, options).to_json(), reference);
    // Telemetry must tell replayed rounds from re-run ones.
    ASSERT_EQ(rounds.size(), 2u);
    EXPECT_TRUE(rounds[0].resumed);
    EXPECT_FALSE(rounds[1].resumed);
}

TEST(dist_checkpoint, truncated_log_line_fails_resume_loudly) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("trunc");
    auto options = checkpointed_options(dir);
    (void)dist::run_sharded(spec, options);

    const auto log_path = dir + "/rounds.log";
    auto content = read_file(log_path);
    ASSERT_GT(content.size(), 10u);
    content.resize(content.size() - 10);  // tear the tail of line 2
    write_file(log_path, content);

    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a torn checkpoint line must fail resume";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("rounds.log"), std::string::npos) << what;
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    }
}

TEST(dist_checkpoint, flipped_hexfloat_digit_fails_resume_loudly) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("flip");
    auto options = checkpointed_options(dir);
    (void)dist::run_sharded(spec, options);

    // Flip one hex digit inside the first hexfloat of line 1. The entry
    // stays structurally valid JSON — only the integrity hash can tell.
    const auto log_path = dir + "/rounds.log";
    auto content = read_file(log_path);
    const auto pos = content.find("0x");
    ASSERT_NE(pos, std::string::npos) << "no hexfloat in the log";
    ASSERT_LT(pos + 2, content.size());
    content[pos + 2] = content[pos + 2] == '0' ? '1' : '0';
    write_file(log_path, content);

    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a corrupt checkpoint entry must fail resume";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 1"), std::string::npos) << what;
        EXPECT_NE(what.find("integrity hash mismatch"), std::string::npos)
            << what;
    }
}

TEST(dist_checkpoint, foreign_spec_digest_fails_resume_loudly) {
    auto spec = small_spec();
    const auto dir = fresh_dir("foreign");
    auto options = checkpointed_options(dir);
    (void)dist::run_sharded(spec, options);

    spec.master_seed += 1;  // a different campaign
    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a foreign checkpoint must never be merged";
    } catch (const std::runtime_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("spec digest mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("different campaign"), std::string::npos) << what;
    }
}

TEST(dist_checkpoint, create_refuses_existing_and_resume_needs_one) {
    const auto spec = small_spec();
    const auto dir = fresh_dir("refuse");
    auto options = checkpointed_options(dir);
    (void)dist::run_sharded(spec, options);

    // Without --resume an existing checkpoint must not be overwritten.
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "a fresh run must refuse an existing checkpoint";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("refusing to overwrite"),
                  std::string::npos)
            << e.what();
    }
    // Resuming a directory that is not a checkpoint fails loudly.
    options.checkpoint_dir = fresh_dir("empty");
    options.resume = true;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "resume of a non-checkpoint directory must fail";
    } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string{e.what()}.find("missing meta.json"),
                  std::string::npos)
            << e.what();
    }
    // Resume without a checkpoint directory is a usage error.
    options.checkpoint_dir.clear();
    EXPECT_THROW((void)dist::run_sharded(spec, options), std::invalid_argument);
}

TEST(dist_checkpoint, many_round_log_streams_back_exactly) {
    // open_for_resume streams rounds.log line by line (util::scan_lines)
    // rather than slurping it; a log far larger than the scanner's read
    // chunk must replay every round in order with every hexfloat intact,
    // including entries straddling chunk boundaries.
    const auto dir = fresh_dir("many");
    constexpr std::uint64_t kRounds = 500;
    {
        auto log = dist::checkpoint_log::create(dir, /*digest=*/7);
        for (std::uint64_t round = 1; round <= kRounds; ++round) {
            std::vector<dist::partial_block> blocks;
            for (std::uint64_t b = 0; b < 3; ++b) {
                dist::partial_block block;
                block.index = (round - 1) * 3 + b;
                block.cell = b;
                block.partial.trials = 4;
                block.partial.hijacks = round % 5;
                block.partial.queries.add(static_cast<double>(round) / 3.0);
                block.partial.queries.add(static_cast<double>(b) + 0.0625);
                blocks.push_back(block);
            }
            log.append(round, blocks);
        }
    }
    const auto log_path = dir + "/rounds.log";
    EXPECT_EQ(line_count(read_file(log_path)), kRounds);

    auto log = dist::checkpoint_log::open_for_resume(dir, 7);
    const auto& entries = log.recorded();
    ASSERT_EQ(entries.size(), kRounds);
    for (std::uint64_t round = 1; round <= kRounds; ++round) {
        const auto& entry = entries[round - 1];
        ASSERT_EQ(entry.round, round);
        ASSERT_EQ(entry.blocks.size(), 3u);
        for (std::uint64_t b = 0; b < 3; ++b) {
            const auto& block = entry.blocks[b];
            EXPECT_EQ(block.index, (round - 1) * 3 + b);
            EXPECT_EQ(block.partial.hijacks, round % 5);
            // Bit-exact Welford state through the wire and back.
            util::welford_accumulator expect;
            expect.add(static_cast<double>(round) / 3.0);
            expect.add(static_cast<double>(b) + 0.0625);
            EXPECT_EQ(block.partial.queries.save().mean, expect.save().mean);
            EXPECT_EQ(block.partial.queries.save().m2, expect.save().m2);
        }
    }
}

TEST(dist_checkpoint, log_api_round_trips_and_validates_digest) {
    const auto dir = fresh_dir("api");
    {
        auto log = dist::checkpoint_log::create(dir, /*digest=*/42);
        EXPECT_TRUE(log.recorded().empty());
        EXPECT_EQ(log.directory(), dir);
    }
    // A second create must refuse; resume with the wrong digest must too.
    EXPECT_THROW((void)dist::checkpoint_log::create(dir, 42),
                 std::runtime_error);
    EXPECT_THROW((void)dist::checkpoint_log::open_for_resume(dir, 43),
                 std::runtime_error);
    auto log = dist::checkpoint_log::open_for_resume(dir, 42);
    EXPECT_TRUE(log.recorded().empty());
}

}  // namespace
}  // namespace pssp
