// Campaign engine: scheduling-independent reproducibility and the
// detection-rate ordering the paper's Table I implies.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <mutex>
#include <random>
#include <regex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/engine.hpp"
#include "util/json.hpp"

namespace pssp {
namespace {

using core::scheme_kind;

campaign::campaign_spec small_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp, scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::byte_by_byte,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 3;
    spec.master_seed = 77;
    spec.query_budget = 2500;
    return spec;
}

const campaign::cell_report& find_cell(const campaign::campaign_report& report,
                                       scheme_kind scheme,
                                       attack::attack_kind attack) {
    const auto it = std::find_if(
        report.cells.begin(), report.cells.end(), [&](const auto& c) {
            return c.scheme == scheme && c.attack == attack;
        });
    EXPECT_NE(it, report.cells.end());
    return *it;
}

TEST(campaign_engine, seeds_depend_only_on_master_seed_and_index) {
    const auto a = campaign::seeds_for_trial(42, 7);
    const auto b = campaign::seeds_for_trial(42, 7);
    EXPECT_EQ(a.server, b.server);
    EXPECT_EQ(a.attacker, b.attacker);
    // Streams are split: server != attacker, and neighbors don't collide.
    EXPECT_NE(a.server, a.attacker);
    EXPECT_NE(campaign::seeds_for_trial(42, 8).server, a.server);
    EXPECT_NE(campaign::seeds_for_trial(43, 7).server, a.server);
}

TEST(campaign_engine, report_identical_across_jobs_levels) {
    auto spec = small_spec();
    spec.jobs = 1;
    auto serial = campaign::engine{spec}.run();
    spec.jobs = 4;
    auto parallel = campaign::engine{spec}.run();
    EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(campaign_engine, report_identical_with_and_without_master_pool) {
    // The snapshot-reuse pool is a pure execution-speed knob: trials are a
    // function of their seeds alone, so routing them through recycled
    // masters must not move a single report byte — at any jobs level.
    auto spec = small_spec();
    spec.reuse_masters = true;
    spec.jobs = 4;
    const auto pooled = campaign::engine{spec}.run();
    spec.reuse_masters = false;
    const auto fresh = campaign::engine{spec}.run();
    EXPECT_EQ(pooled.to_json(), fresh.to_json());
    spec.reuse_masters = true;
    spec.jobs = 1;
    const auto pooled_serial = campaign::engine{spec}.run();
    EXPECT_EQ(pooled.to_json(), pooled_serial.to_json());
}

TEST(campaign_engine, pssp_detection_beats_ssp_on_byte_by_byte) {
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp, scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::byte_by_byte};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 5;
    spec.master_seed = 2018;
    spec.query_budget = 4096;
    spec.jobs = 0;  // all cores
    const auto report = campaign::engine{spec}.run();

    const auto& ssp = find_cell(report, scheme_kind::ssp,
                                attack::attack_kind::byte_by_byte);
    const auto& pssp = find_cell(report, scheme_kind::p_ssp,
                                 attack::attack_kind::byte_by_byte);
    // SSP falls to byte-by-byte (shared canary across forks); P-SSP turns
    // every trial into a detected failure.
    EXPECT_GT(pssp.detection_rate, ssp.detection_rate);
    EXPECT_EQ(pssp.hijacks, 0u);
    EXPECT_GT(ssp.hijack_rate, 0.5);
    // The paper's expected cost on SSP: ~8 * 2^7 queries per compromise.
    EXPECT_GT(ssp.queries_to_compromise.count(), 0u);
    EXPECT_LT(ssp.queries_to_compromise.mean(), 2500.0);
}

TEST(campaign_engine, leak_replay_bytes_valid_separates_schemes) {
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp, scheme_kind::p_ssp};
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 4;
    spec.master_seed = 5;
    spec.jobs = 0;
    const auto report = campaign::engine{spec}.run();

    const auto& ssp = find_cell(report, scheme_kind::ssp,
                                attack::attack_kind::leak_replay);
    const auto& pssp = find_cell(report, scheme_kind::p_ssp,
                                 attack::attack_kind::leak_replay);
    // A leaked SSP canary is the process canary: all 8 bytes stay valid.
    EXPECT_DOUBLE_EQ(ssp.leaked_bytes_valid.mean(), 8.0);
    EXPECT_DOUBLE_EQ(ssp.hijack_rate, 1.0);
    // P-SSP re-randomizes per fork: the leak goes stale almost entirely.
    EXPECT_LT(pssp.leaked_bytes_valid.mean(), 2.0);
}

TEST(campaign_engine, reduce_cell_statistics) {
    std::vector<campaign::trial_result> trials;
    for (int i = 0; i < 10; ++i) {
        campaign::trial_result t;
        t.hijacked = i < 3;
        t.detected = i >= 3;
        t.oracle_queries = static_cast<std::uint64_t>(100 + i);
        t.canary_detections = t.detected ? 5 : 0;
        t.other_crashes = 2;
        t.leaked_bytes_valid = static_cast<unsigned>(i % 2);
        trials.push_back(t);
    }
    const auto cell = campaign::reduce_cell(scheme_kind::ssp,
                                            attack::attack_kind::brute_force,
                                            workload::target_kind::nginx, trials);
    EXPECT_EQ(cell.trials, 10u);
    EXPECT_EQ(cell.hijacks, 3u);
    EXPECT_EQ(cell.detections, 7u);
    EXPECT_DOUBLE_EQ(cell.hijack_rate, 0.3);
    EXPECT_DOUBLE_EQ(cell.detection_rate, 0.7);
    EXPECT_EQ(cell.canary_detections, 35u);
    EXPECT_EQ(cell.other_crashes, 20u);
    EXPECT_EQ(cell.queries.count(), 10u);
    EXPECT_DOUBLE_EQ(cell.queries.mean(), 104.5);
    EXPECT_EQ(cell.queries_to_compromise.count(), 3u);
    EXPECT_DOUBLE_EQ(cell.queries_to_compromise.mean(), 101.0);
    // Wilson interval brackets the point estimate and stays in [0,1].
    EXPECT_GT(cell.detection_rate, cell.detection_ci.lo);
    EXPECT_LT(cell.detection_rate, cell.detection_ci.hi);
    EXPECT_GE(cell.detection_ci.lo, 0.0);
    EXPECT_LE(cell.detection_ci.hi, 1.0);
}

TEST(campaign_engine, full_spec_covers_every_campaign_capable_scheme) {
    const auto spec = campaign::full_spec();
    const std::vector<scheme_kind> expected{
        scheme_kind::ssp,  scheme_kind::raf_ssp, scheme_kind::dynaguard,
        scheme_kind::dcr,  scheme_kind::p_ssp,   scheme_kind::p_ssp_owf};
    EXPECT_EQ(spec.schemes, expected);
    // brute_force is deliberately absent: it cannot model DCR (the engine
    // rejects the pairing), and full_spec includes dcr.
    EXPECT_EQ(std::count(spec.attacks.begin(), spec.attacks.end(),
                         attack::attack_kind::brute_force),
              0);
    EXPECT_NO_THROW(campaign::engine{spec});
}

// One smoke campaign per full_spec scheme: every scheme must survive a
// real (tiny) trial run and produce a coherent cell.
class full_spec_scheme_smoke : public ::testing::TestWithParam<scheme_kind> {};

TEST_P(full_spec_scheme_smoke, runs_two_trials) {
    campaign::campaign_spec spec;
    spec.schemes = {GetParam()};
    spec.attacks = {attack::attack_kind::byte_by_byte};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 2;
    spec.master_seed = 2018;
    spec.query_budget = 2500;
    const auto report = campaign::engine{spec}.run();
    ASSERT_EQ(report.cells.size(), 1u);
    EXPECT_EQ(report.cells[0].scheme, GetParam());
    EXPECT_EQ(report.cells[0].trials, 2u);
    EXPECT_EQ(report.cells[0].queries.count(), 2u);
    // Every trial ends somehow: hijacked, detected, or crashed out.
    EXPECT_GT(report.cells[0].hijacks + report.cells[0].detections +
                  report.cells[0].other_crashes,
              0u);
}

INSTANTIATE_TEST_SUITE_P(
    all_full_spec_schemes, full_spec_scheme_smoke,
    ::testing::ValuesIn(campaign::full_spec().schemes),
    [](const ::testing::TestParamInfo<scheme_kind>& info) {
        std::string name = core::to_string(info.param);
        for (auto& c : name)
            if (c == '-') c = '_';
        return name;
    });

TEST(campaign_engine, resolve_jobs_clamps_to_at_least_one) {
    // Regression: jobs == 0 means "one per hardware thread", but
    // hardware_concurrency() may itself return 0 — the resolved count must
    // still be a runnable worker pool.
    EXPECT_GE(campaign::resolve_jobs(0), 1u);
    EXPECT_EQ(campaign::resolve_jobs(1), 1u);
    EXPECT_EQ(campaign::resolve_jobs(7), 7u);
}

TEST(campaign_engine, cell_partial_add_merge_matches_reduce_cell) {
    // reduce_cell == blockwise add()+merge() by construction; pin it so
    // the wire path (which replays exactly this) can't drift.
    std::vector<campaign::trial_result> trials;
    for (int i = 0; i < 150; ++i) {  // spans multiple reduction blocks
        campaign::trial_result t;
        t.hijacked = (i % 3) == 0;
        t.detected = (i % 3) != 0;
        t.oracle_queries = static_cast<std::uint64_t>(10 * i + 1);
        t.leaked_bytes_valid = static_cast<unsigned>(i % 9);
        trials.push_back(t);
    }
    const auto direct = campaign::reduce_cell(
        scheme_kind::ssp, attack::attack_kind::byte_by_byte,
        workload::target_kind::nginx, trials);

    campaign::cell_partial merged;
    for (std::size_t start = 0; start < trials.size();
         start += campaign::reduce_block_trials) {
        campaign::cell_partial block;
        const std::size_t end = std::min<std::size_t>(
            start + campaign::reduce_block_trials, trials.size());
        for (std::size_t i = start; i < end; ++i) block.add(trials[i]);
        merged.merge(block);
    }
    const auto finalized = campaign::finalize_cell(
        campaign::cell_id{workload::target_kind::nginx, scheme_kind::ssp,
                          attack::attack_kind::byte_by_byte},
        merged);
    EXPECT_EQ(finalized.trials, direct.trials);
    EXPECT_EQ(finalized.hijacks, direct.hijacks);
    EXPECT_EQ(finalized.detections, direct.detections);
    // Bit equality on the float statistics — same operations, same order.
    EXPECT_EQ(finalized.queries.mean(), direct.queries.mean());
    EXPECT_EQ(finalized.queries.stddev(), direct.queries.stddev());
    EXPECT_EQ(finalized.detection_ci.lo, direct.detection_ci.lo);
    EXPECT_EQ(finalized.detection_ci.hi, direct.detection_ci.hi);
}

TEST(campaign_engine, ragged_last_blocks_identical_across_jobs_levels) {
    // The reduce_block_trials boundary, pinned rather than incidental:
    // below a block (1), one short (63), exactly one (64), one over (65)
    // and one under two (127). Every size must be jobs-invariant.
    for (const std::uint64_t trials : {1ull, 63ull, 64ull, 65ull, 127ull}) {
        campaign::campaign_spec spec;
        spec.schemes = {scheme_kind::ssp};
        spec.attacks = {attack::attack_kind::leak_replay};
        spec.targets = {workload::target_kind::nginx};
        spec.trials_per_cell = trials;
        spec.master_seed = 31;
        spec.query_budget = 600;
        spec.jobs = 1;
        const auto serial = campaign::engine{spec}.run();
        spec.jobs = 8;
        const auto parallel = campaign::engine{spec}.run();
        EXPECT_EQ(serial.to_json(), parallel.to_json())
            << "trials_per_cell=" << trials;
        ASSERT_EQ(serial.cells.size(), 1u);
        EXPECT_EQ(serial.cells[0].trials, trials);
    }
}

// Skewed cells — a brute_force cell costing ~30x a leak_replay trial —
// with a ragged last block per cell (70 = 64 + 6 trials), so threads that
// claim single trials finish blocks in an order unrelated to the blocks'.
campaign::campaign_spec skewed_spec() {
    campaign::campaign_spec spec;
    spec.schemes = {scheme_kind::ssp};
    spec.attacks = {attack::attack_kind::brute_force,
                    attack::attack_kind::leak_replay};
    spec.targets = {workload::target_kind::nginx};
    spec.trials_per_cell = 70;
    spec.brute_unknown_bits = 6;
    spec.master_seed = 4242;
    spec.query_budget = 600;
    return spec;
}

bool same_welford(const util::welford_accumulator& a,
                  const util::welford_accumulator& b) {
    const auto x = a.save();
    const auto y = b.save();
    return std::memcmp(&x, &y, sizeof x) == 0;
}

bool same_partial(const campaign::cell_partial& a, const campaign::cell_partial& b) {
    return a.trials == b.trials && a.hijacks == b.hijacks &&
           a.detections == b.detections &&
           a.canary_detections == b.canary_detections &&
           a.other_crashes == b.other_crashes && same_welford(a.queries, b.queries) &&
           same_welford(a.queries_to_compromise, b.queries_to_compromise) &&
           same_welford(a.leaked_bytes_valid, b.leaked_bytes_valid);
}

TEST(campaign_engine, skewed_cells_identical_at_every_jobs_level) {
    auto spec = skewed_spec();
    ASSERT_EQ(campaign::blocks_for(spec).size(), 4u);  // jobs 8 > blocks
    spec.jobs = 1;
    const auto serial = campaign::engine{spec}.run().to_json();
    for (const unsigned jobs : {2u, 3u, 8u}) {
        spec.jobs = jobs;
        EXPECT_EQ(campaign::engine{spec}.run().to_json(), serial) << "jobs=" << jobs;
    }
}

TEST(campaign_engine, shuffled_block_subset_yields_the_same_partials) {
    auto spec = skewed_spec();
    spec.jobs = 1;
    const auto blocks = campaign::blocks_for(spec);
    const auto all = campaign::engine{spec}.run_blocks(blocks);

    std::vector<campaign::block_ref> subset{blocks[3], blocks[0], blocks[2]};
    std::shuffle(subset.begin(), subset.end(), std::mt19937_64{9});
    spec.jobs = 3;
    const auto partials = campaign::engine{spec}.run_blocks(subset);
    ASSERT_EQ(partials.size(), subset.size());
    for (std::size_t i = 0; i < subset.size(); ++i)
        EXPECT_TRUE(same_partial(partials[i], all[subset[i].index]))
            << "block " << subset[i].index;
}

TEST(campaign_engine, progress_is_monotonic_and_ends_at_total) {
    auto spec = skewed_spec();
    spec.jobs = 3;
    campaign::engine eng{spec};
    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> calls;
    eng.set_progress([&](std::uint64_t done, std::uint64_t total) {
        std::lock_guard lock{mutex};
        calls.emplace_back(done, total);
    });
    (void)eng.run();
    const std::uint64_t total = 2 * spec.trials_per_cell;
    ASSERT_EQ(calls.size(), total);
    for (std::size_t i = 0; i < calls.size(); ++i) {
        EXPECT_EQ(calls[i].first, i + 1);
        EXPECT_EQ(calls[i].second, total);
    }
    EXPECT_EQ(calls.back(), std::make_pair(total, total));
}

TEST(campaign_engine, throwing_trial_fails_the_run_with_its_index) {
    // unknown_bits == 0 makes every brute_force trial throw; the brute
    // cell comes second, so its trials are [70, 140).
    auto spec = skewed_spec();
    spec.attacks = {attack::attack_kind::leak_replay, attack::attack_kind::brute_force};
    spec.brute_unknown_bits = 0;
    for (const unsigned jobs : {1u, 3u}) {
        spec.jobs = jobs;
        try {
            (void)campaign::engine{spec}.run();
            ADD_FAILURE() << "expected a failing trial, jobs=" << jobs;
        } catch (const std::runtime_error& e) {
            std::cmatch match;
            const std::string what = e.what();
            ASSERT_TRUE(std::regex_search(
                what.c_str(), match,
                std::regex{"^campaign::engine: trial ([0-9]+): brute_force: unknown_bits"}))
                << what;
            const auto g = std::stoull(match[1].str());
            EXPECT_GE(g, 70u) << what;
            EXPECT_LT(g, 140u) << what;
            if (jobs == 1) {
                EXPECT_EQ(g, 70u);
            }
        }
    }
}

TEST(campaign_spec, degenerate_specs_yield_empty_blocks_and_valid_reports) {
    // trials_per_cell == 0 and empty axes are well-defined at the
    // campaign-type level (the engine separately refuses to run them):
    // empty block lists, and assemble_report produces a valid JSON body.
    for (auto mutate : {+[](campaign::campaign_spec& s) { s.schemes.clear(); },
                        +[](campaign::campaign_spec& s) { s.attacks.clear(); },
                        +[](campaign::campaign_spec& s) { s.targets.clear(); },
                        +[](campaign::campaign_spec& s) {
                            s.trials_per_cell = 0;
                        }}) {
        auto spec = campaign::default_spec();
        mutate(spec);
        const auto blocks = campaign::blocks_for(spec);
        EXPECT_TRUE(blocks.empty());
        const auto report = campaign::assemble_report(
            spec, blocks, std::vector<campaign::cell_partial>{});
        EXPECT_EQ(report.cells.size(), spec.cell_count());
        const auto json = report.to_json();
        EXPECT_NO_THROW((void)util::parse_json(json));
        EXPECT_NE(json.find("\"cells\":["), std::string::npos);
        // And the human rendering stays well-formed too.
        EXPECT_NO_THROW((void)report.to_table());
    }
    // finalize_cell on an empty partial: zero rates, vacuous CIs — no
    // division by zero.
    const auto cell = campaign::finalize_cell(
        campaign::cell_id{workload::target_kind::nginx, scheme_kind::ssp,
                          attack::attack_kind::leak_replay},
        campaign::cell_partial{});
    EXPECT_EQ(cell.trials, 0u);
    EXPECT_DOUBLE_EQ(cell.hijack_rate, 0.0);
    EXPECT_DOUBLE_EQ(cell.detection_ci.lo, 0.0);
    EXPECT_DOUBLE_EQ(cell.detection_ci.hi, 1.0);
}

TEST(campaign_engine, rejects_empty_spec) {
    campaign::campaign_spec spec;
    EXPECT_THROW(campaign::engine{spec}, std::invalid_argument);
}

TEST(campaign_engine, rejects_brute_force_against_dcr) {
    // The brute-force payload model needs DCR's per-victim link offset,
    // which the campaign cannot derive; a silent 0.0 hijack rate would
    // masquerade as genuine prevention.
    auto spec = small_spec();
    spec.schemes.push_back(scheme_kind::dcr);
    spec.attacks.push_back(attack::attack_kind::brute_force);
    EXPECT_THROW(campaign::engine{spec}, std::invalid_argument);
}

}  // namespace
}  // namespace pssp
