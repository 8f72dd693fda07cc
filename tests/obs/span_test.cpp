// The span tracer's contracts: disabled tracing records nothing, ring
// overflow keeps the newest N spans, the Chrome export is valid JSON with
// properly nested intervals, and the flight record is bounded.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/span.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

#if PSSP_OBS

class obs_span : public ::testing::Test {
  protected:
    void SetUp() override {
        obs::clear_spans_for_test();
        obs::enable_tracing(true);
    }
    void TearDown() override {
        obs::enable_tracing(false);
        obs::clear_spans_for_test();
    }
};

TEST_F(obs_span, disabled_tracing_records_nothing) {
    obs::enable_tracing(false);
    { obs::span sp{"ignored", "test"}; }
    obs::emit_span("also_ignored", "test", 0, 1);
    EXPECT_EQ(obs::buffered_span_count(), 0u);
}

TEST_F(obs_span, scoped_span_records_once) {
    { obs::span sp{"unit", "test", 7}; }
    EXPECT_EQ(obs::buffered_span_count(), 1u);
}

TEST_F(obs_span, ring_overflow_keeps_newest_n) {
    // Capacity applies to rings created after the call, so the small ring
    // must be exercised from a fresh thread (this thread's full-size ring
    // already exists).
    obs::set_ring_capacity(8);
    std::thread writer{[] {
        for (int i = 0; i < 100; ++i)
            obs::emit_span(("span_" + std::to_string(i)).c_str(), "test",
                           static_cast<std::uint64_t>(i) * 1000, 10,
                           /*arg=*/i);
    }};
    writer.join();
    obs::set_ring_capacity(4096);

    EXPECT_EQ(obs::buffered_span_count(), 8u);
    // The survivors must be exactly the newest 8 (span_92..span_99).
    const auto doc = util::parse_json(obs::chrome_trace_json());
    const auto& events = doc.at("traceEvents").elements();
    ASSERT_EQ(events.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(events[static_cast<std::size_t>(i)].at("name").as_string(),
                  "span_" + std::to_string(92 + i));
}

TEST_F(obs_span, chrome_trace_parses_and_nests) {
    {
        obs::span outer{"outer", "test", 1};
        std::this_thread::sleep_for(std::chrono::milliseconds{2});
        {
            obs::span inner{"inner", "test", 2};
            std::this_thread::sleep_for(std::chrono::milliseconds{1});
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
    }
    const auto doc = util::parse_json(obs::chrome_trace_json("span_test"));
    const auto& events = doc.at("traceEvents").elements();
    // process_name metadata event + the two spans, sorted by start time.
    ASSERT_EQ(events.size(), 3u);
    EXPECT_EQ(events[0].at("ph").as_string(), "M");
    EXPECT_EQ(events[0].at("args").at("name").as_string(), "span_test");
    const auto& outer = events[1];
    const auto& inner = events[2];
    EXPECT_EQ(outer.at("name").as_string(), "outer");
    EXPECT_EQ(inner.at("name").as_string(), "inner");
    EXPECT_EQ(outer.at("ph").as_string(), "X");
    EXPECT_EQ(outer.at("cat").as_string(), "test");
    EXPECT_EQ(outer.at("args").at("n").as_u64(), 1u);
    // Interval nesting in microseconds: inner starts after outer and ends
    // before outer ends — the property chrome://tracing renders as a
    // child bar.
    const double outer_ts = outer.at("ts").as_double();
    const double outer_dur = outer.at("dur").as_double();
    const double inner_ts = inner.at("ts").as_double();
    const double inner_dur = inner.at("dur").as_double();
    EXPECT_GE(inner_ts, outer_ts);
    EXPECT_LE(inner_ts + inner_dur, outer_ts + outer_dur);
    EXPECT_GE(inner_dur, 1000.0);   // slept >= 1ms
    EXPECT_GE(outer_dur, 4000.0);   // slept >= 4ms total
}

TEST_F(obs_span, spans_from_multiple_threads_all_export) {
    constexpr int kThreads = 4;
    constexpr int kSpansPerThread = 16;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([] {
            for (int i = 0; i < kSpansPerThread; ++i)
                obs::span sp{"worker_span", "test", i};
        });
    for (auto& t : pool) t.join();
    EXPECT_EQ(obs::buffered_span_count(), kThreads * kSpansPerThread);
}

TEST_F(obs_span, flight_record_is_bounded_and_newest_first_window) {
    for (int i = 0; i < 50; ++i)
        obs::emit_span(std::string{"f"}.append(std::to_string(i)).c_str(), "test",
                       static_cast<std::uint64_t>(i) * 1000, 10);
    const auto doc = util::parse_json(obs::flight_record_json(/*max_spans=*/10));
    const auto& spans = doc.at("spans").elements();
    ASSERT_EQ(spans.size(), 10u);
    // Chronological order, and the window is the newest 10 (f40..f49).
    EXPECT_EQ(spans.front().at("name").as_string(), "f40");
    EXPECT_EQ(spans.back().at("name").as_string(), "f49");
}

#else  // PSSP_OBS == 0

TEST(obs_span, stubs_compile_and_export_empty) {
    obs::enable_tracing(true);
    { obs::span sp{"ignored"}; }
    EXPECT_EQ(obs::buffered_span_count(), 0u);
    const auto doc = util::parse_json(obs::chrome_trace_json());
    EXPECT_TRUE(doc.at("traceEvents").elements().empty());
}

#endif

}  // namespace
}  // namespace pssp
