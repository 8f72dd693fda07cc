// The TCP coordinator, end to end: a real localhost fleet of
// tools_campaign_node daemons (each fork/execing the real
// tools_campaign_worker per lease) must produce campaign reports
// byte-identical to the in-process engine — at every worker count, in
// fixed and adaptive allocation, under every network fault class the
// chaos harness can inject, and after a worker vanishes for good. Plus
// the protocol edges: version-mismatch handshake rejection with the
// pinned message, and the loud register-wait failure when no fleet ever
// connects.

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "campaign/engine.hpp"
#include "dist/chaos.hpp"
#include "dist/coordinator.hpp"
#include "dist/orchestrator.hpp"
#include "dist/temp_dir.hpp"
#include "obs/registry.hpp"

namespace pssp {
namespace {

struct scoped_fault_plan {
    explicit scoped_fault_plan(const char* plan) {
        ::setenv(dist::fault_plan_env, plan, /*overwrite=*/1);
    }
    ~scoped_fault_plan() { ::unsetenv(dist::fault_plan_env); }
};

// Two cells, one 6-trial block each: the smallest campaign where two
// workers both own real work.
campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {core::scheme_kind::ssp, core::scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 6;
    spec.master_seed = 23;
    spec.query_budget = 512;
    return spec;
}

// Fleet-mode options: shards-many leases per round, workers-many node
// daemons, fast heartbeats and tiny backoffs so recovery paths finish
// inside sanitizer-slowed CI.
dist::sharded_options fleet_options(unsigned shards, unsigned workers) {
    dist::sharded_options options;
    options.shards = shards;
    options.flight_recorder = false;
    options.postmortem_dir = testing_util::unique_temp_dir();
    options.faults.max_attempts = 4;
    options.faults.backoff_base_seconds = 0.001;
    options.faults.backoff_cap_seconds = 0.01;
    dist::net_options net;
    net.fleet_workers = workers;
    net.heartbeat_seconds = 0.1;
    options.net = net;
    return options;
}

std::uint64_t counter_value(const char* name) {
    return obs::value(obs::counter(name));
}

TEST(dist_coordinator, fleet_reports_byte_identical_at_every_worker_count) {
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    for (unsigned workers : {1u, 2u, 4u}) {
        const auto options = fleet_options(workers, workers);
        const auto report = dist::run_sharded(spec, options);
        EXPECT_EQ(report.to_json(), reference) << "workers: " << workers;
    }
}

TEST(dist_coordinator, adaptive_fleet_is_byte_identical_across_rounds) {
    // Two deterministic allocator rounds; workers persist across rounds
    // on the same connections — per-round re-registration would show up
    // as extra connections (and nondeterminism) here.
    auto spec = small_spec();
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.trials_per_cell = 96;
    spec.round_blocks = 2;
    spec.min_trials_per_cell = 32;
    const auto reference = campaign::engine{spec}.run().to_json();
    const auto connections_before = counter_value("dist.net.connections");
    const auto report = dist::run_sharded(spec, fleet_options(2, 2));
    EXPECT_EQ(report.to_json(), reference);
    EXPECT_EQ(counter_value("dist.net.connections") - connections_before, 2u);
}

TEST(dist_coordinator, every_net_fault_class_heals_byte_identically) {
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    struct chaos_case {
        const char* plan;
        unsigned workers;
        const char* recovery_counter;  // must have moved, or nullptr
    };
    // Every fault strikes attempt 1 only (the default coordinate), so
    // the requeue heals it within the 4-attempt budget. Process faults
    // (crash) ride the same plan to prove the node still exports the
    // chaos coordinates to its compute children. The reconnect cases run
    // a single-worker fleet: the campaign then cannot complete at all
    // unless the dropped worker really reconnects, re-registers, and is
    // re-leased — the counter cannot be satisfied by a lucky survivor.
    const chaos_case cases[] = {
        {"net-drop:0", 1, "dist.net.reconnects"},
        {"net-garble:1", 2, "dist.net.evictions"},
        {"net-delay=100:0", 2, nullptr},
        {"net-partition=200:1", 1, "dist.net.reconnects"},
        {"net-stall-hb:0", 2, "dist.net.evictions"},
        {"crash:0,net-drop:1", 1, "dist.net.reconnects"},
    };
    for (const auto& c : cases) {
        scoped_fault_plan plan{c.plan};
        const auto before =
            c.recovery_counter ? counter_value(c.recovery_counter) : 0;
        const auto report = dist::run_sharded(spec, fleet_options(2, c.workers));
        EXPECT_EQ(report.to_json(), reference) << "plan: " << c.plan;
        if (c.recovery_counter) {
            EXPECT_GT(counter_value(c.recovery_counter), before)
                << "plan injected nothing: " << c.plan << " ("
                << c.recovery_counter << " unmoved)";
        }
    }
}

TEST(dist_coordinator, vanished_worker_degrades_to_requeue_on_survivors) {
    // net-die makes node 1's daemon exit for good the first time it takes
    // shard 1. The fleet shrinks to one worker; the requeued lease must
    // land on the survivor and the report must not move a byte.
    const auto spec = small_spec();
    const auto reference = campaign::engine{spec}.run().to_json();
    scoped_fault_plan plan{"net-die:1"};
    const auto evictions_before = counter_value("dist.net.evictions");
    const auto report = dist::run_sharded(spec, fleet_options(2, 2));
    EXPECT_EQ(report.to_json(), reference);
    EXPECT_GT(counter_value("dist.net.evictions"), evictions_before);
}

TEST(dist_coordinator, version_mismatch_handshake_is_rejected_with_the_pinned_error) {
    // Speak the wire by hand: a v999 hello must be answered with exactly
    // version_mismatch_error(999) in an error frame, the connection
    // closed, and the worker never registered.
    dist::net_options net;  // no fleet — we are the only "worker"
    const dist::fault_policy policy;
    dist::coordinator coord{net, policy, /*spec_digest=*/1};
    ASSERT_NE(coord.port(), 0);

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(coord.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);

    dist::hello_msg hello;
    hello.version = 999;
    hello.name = "time-traveler";
    const auto wire = dist::encode_frame(dist::frame_type::hello,
                                         dist::hello_to_json(hello));
    ASSERT_EQ(::write(fd, wire.data(), wire.size()),
              static_cast<ssize_t>(wire.size()));

    // Let the coordinator accept, read the hello, and refuse us.
    for (int i = 0; i < 50 && coord.registered_workers() == 0; ++i)
        coord.pump(/*wait_ms=*/20);
    EXPECT_EQ(coord.registered_workers(), 0u);

    // The refusal arrives as an error frame, then EOF.
    dist::frame_reader reader;
    char buf[4096];
    std::vector<dist::frame> frames;
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n <= 0) break;
        reader.feed(buf, static_cast<std::size_t>(n));
        while (auto f = reader.next()) frames.push_back(std::move(*f));
    }
    ::close(fd);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].type, dist::frame_type::error);
    EXPECT_EQ(frames[0].payload, dist::coordinator::version_mismatch_error(999));
    EXPECT_EQ(frames[0].payload,
              "coordinator: protocol version mismatch (worker speaks v999, "
              "coordinator speaks v1)");
}

TEST(dist_coordinator, no_workers_within_register_wait_fails_loudly) {
    // Listen-only mode with nobody told to connect: the run must fail
    // with the starvation message, not hang.
    const auto spec = small_spec();
    auto options = fleet_options(2, /*workers=*/0);
    options.net->register_wait_seconds = 0.2;
    try {
        (void)dist::run_sharded(spec, options);
        FAIL() << "run completed with no workers";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(),
                     "run_sharded: no registered workers within 0.2s — fleet "
                     "lost or never connected");
    }
}

}  // namespace
}  // namespace pssp
