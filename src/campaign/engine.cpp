#include "campaign/engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <chrono>

#include "campaign/allocator.hpp"
#include "core/tls_layout.hpp"
#include "crypto/prng.hpp"
#include "obs/span.hpp"

namespace pssp::campaign {

trial_seeds seeds_for_trial(std::uint64_t master_seed, std::uint64_t trial_index) {
    // splitmix64 over a per-trial state: the golden-ratio stride keeps
    // neighboring trials' states far apart, and splitmix's full-avalanche
    // output decorrelates the two streams from each other and from the raw
    // master seed. Purely a function of (master_seed, trial_index) — never
    // of which worker thread picked the trial up.
    std::uint64_t state = master_seed + 0x9e3779b97f4a7c15ull * (trial_index + 1);
    trial_seeds s;
    s.server = crypto::splitmix64_next(state);
    s.attacker = crypto::splitmix64_next(state);
    return s;
}

namespace {

struct cell_key {
    workload::target_kind target;
    core::scheme_kind scheme;
    attack::attack_kind attack;
    const workload::victim* victim = nullptr;
};

trial_result run_trial(const cell_key& cell, const campaign_spec& spec,
                       const trial_seeds& seeds) {
    // Pooled and fresh oracles are byte-identical for a given seed (the
    // master_pool contract), so this branch affects wall-clock only.
    std::optional<proc::master_pool::lease> lease;
    std::optional<proc::fork_server> fresh;
    if (spec.reuse_masters)
        lease.emplace(cell.victim->lease_server(seeds.server));
    else
        fresh.emplace(cell.victim->make_server(seeds.server));
    proc::fork_server& oracle = lease.has_value() ? lease->server() : *fresh;

    attack::attack_context ctx{
        .oracle = oracle,
        .scheme = cell.scheme,
        .prefix_bytes = cell.victim->prefix_bytes,
        .canary_bytes = cell.victim->canary_bytes,
        .ret_target = cell.victim->ret_target,
        .saved_rbp = cell.victim->saved_rbp,
        .seed = seeds.attacker,
        .query_budget = spec.query_budget,
        .true_canary_hint = 0,
        .unknown_bits = spec.brute_unknown_bits,
        .dcr_offset = 0,
    };
    if (cell.attack == attack::attack_kind::brute_force) {
        // The entropy-reduction harness (Section III-C-1): leak the top
        // bits of the booted master's true canary so the residual search
        // space is 2^unknown_bits and trials finish inside the budget.
        ctx.true_canary_hint = core::tls_load(oracle.master(), core::tls_canary);
    }

    const auto strategy = attack::make_strategy(cell.attack);
    const auto outcome = strategy->execute(ctx);

    return trial_result{
        .hijacked = outcome.hijacked,
        .detected = outcome.detected,
        .oracle_queries = outcome.oracle_queries,
        .canary_detections = outcome.canary_detections,
        .other_crashes = outcome.other_crashes,
        .leaked_bytes_valid = outcome.leaked_bytes_valid,
    };
}

std::string cell_name(const cell_id& id) {
    return workload::to_string(id.target) + "/" + core::to_string(id.scheme) +
           "/" + attack::to_string(id.attack);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

}  // namespace

engine::engine(campaign_spec spec) : spec_{std::move(spec)} {
    if (spec_.schemes.empty() || spec_.attacks.empty() || spec_.targets.empty())
        throw std::invalid_argument{
            "campaign::engine: spec needs >= 1 scheme, attack and target"};
    if (spec_.trials_per_cell == 0)
        throw std::invalid_argument{"campaign::engine: trials_per_cell == 0"};
    if (spec_.adaptive && (!std::isfinite(spec_.target_ci_halfwidth) ||
                           spec_.target_ci_halfwidth < 0.0))
        throw std::invalid_argument{
            "campaign::engine: target_ci_halfwidth must be finite and >= 0"};
    // DCR's brute-force model needs the victim's true link offset in the
    // low canary half; no static victim property supplies it, and running
    // with a wrong offset reports a hijack rate of 0 that is
    // indistinguishable from genuine prevention. Refuse to measure garbage.
    const bool has_brute =
        std::find(spec_.attacks.begin(), spec_.attacks.end(),
                  attack::attack_kind::brute_force) != spec_.attacks.end();
    const bool has_dcr = std::find(spec_.schemes.begin(), spec_.schemes.end(),
                                   core::scheme_kind::dcr) != spec_.schemes.end();
    if (has_brute && has_dcr)
        throw std::invalid_argument{
            "campaign::engine: brute_force x dcr needs the per-victim link "
            "offset, which campaigns do not model yet"};
}

campaign_report engine::run() {
    if (!spec_.adaptive) {
        obs::span sp{"campaign.run", "campaign"};
        const auto start = std::chrono::steady_clock::now();
        const auto blocks = blocks_for(spec_);
        const auto partials = run_blocks(blocks);
        auto report = assemble_report(spec_, blocks, partials);
        if (round_observer_) {
            // One line for the whole fixed campaign (round 0); the widest
            // cell is the one adaptive allocation would have fed first.
            obs::round_summary summary;
            summary.round = 0;
            summary.blocks = blocks.size();
            summary.trials = report.total_trials();
            summary.cumulative_trials = summary.trials;
            const auto ids = cells_for(spec_);
            for (std::size_t c = 0; c < report.cells.size(); ++c) {
                const double hw =
                    std::max(report.cells[c].detection_ci.half_width(),
                             report.cells[c].hijack_ci.half_width());
                if (hw > summary.max_halfwidth) {
                    summary.max_halfwidth = hw;
                    summary.widest_cell = cell_name(ids[c]);
                }
            }
            summary.wall_seconds = seconds_since(start);
            round_observer_(summary);
        }
        return report;
    }
    // Adaptive round loop: plan -> execute -> record until every cell has
    // converged or exhausted its budget. The allocator's decisions are pure
    // functions of the merged partials, and run_blocks partials are pure
    // functions of (master_seed, block), so this loop reproduces the dist
    // orchestrator's sharded round loop byte for byte.
    adaptive_allocator allocator{spec_};
    const auto ids = cells_for(spec_);
    for (;;) {
        const auto round = allocator.plan_round();
        if (round.empty()) break;
        obs::span sp{"campaign.round", "campaign",
                     static_cast<std::int64_t>(allocator.rounds_completed() + 1)};
        const auto start = std::chrono::steady_clock::now();
        const auto partials = run_blocks(round);
        allocator.record_round(round, partials);
        if (round_observer_) {
            obs::round_summary summary;
            summary.round = allocator.rounds_completed();
            summary.blocks = round.size();
            for (const auto& b : round) summary.trials += b.trials;
            summary.cumulative_trials = allocator.trials_run();
            for (std::uint64_t c = 0; c < ids.size(); ++c) {
                if (allocator.cell_converged(c)) continue;
                const double hw = allocator.cell_halfwidth(c);
                if (hw > summary.max_halfwidth) {
                    summary.max_halfwidth = hw;
                    summary.widest_cell = cell_name(ids[c]);
                }
            }
            summary.wall_seconds = seconds_since(start);
            round_observer_(summary);
        }
    }
    return allocator.report();
}

std::vector<cell_partial> engine::run_blocks(std::span<const block_ref> blocks) {
    const auto ids = cells_for(spec_);
    const std::size_t n_attacks = spec_.attacks.size();
    for (const auto& b : blocks)
        if (b.cell >= ids.size())
            throw std::invalid_argument{
                "campaign::engine: block cell index out of range"};

    // Canonical trial order: the blocks as given, each block's trials in
    // order. begin[bi] is block bi's first position in it.
    std::vector<std::uint64_t> begin(blocks.size() + 1, 0);
    for (std::size_t bi = 0; bi < blocks.size(); ++bi)
        begin[bi + 1] = begin[bi] + blocks[bi].trials;
    const std::uint64_t total = begin.back();

    const unsigned jobs = static_cast<unsigned>(std::min<std::uint64_t>(
        resolve_jobs(spec_.jobs), std::max<std::uint64_t>(total, 1)));

    // One victim build per (target, scheme), but only for the pairs these
    // blocks actually touch — a shard owning 3 of 18 blocks must not pay
    // for 6 compiles. Attacks within a cell share the build, and the cache
    // is an engine member so an adaptive round loop pays each compile once.
    victims_.resize(spec_.targets.size() * spec_.schemes.size());
    std::vector<cell_key> cells(ids.size());
    for (const auto& b : blocks) {
        const std::size_t vi = b.cell / n_attacks;
        if (!victims_[vi].has_value()) {
            obs::span sp{"victim.build", "campaign",
                         static_cast<std::int64_t>(vi)};
            victims_[vi].emplace(workload::make_victim(
                ids[b.cell].target, ids[b.cell].scheme, spec_.scheme_options));
            // Per-shard pool sizing: park at most one booted master per
            // worker thread. A lone process on a big machine keeps them
            // all; each process of a wide fan-out keeps only its share.
            victims_[vi]->pool->set_idle_limit(jobs);
        }
        cells[b.cell] = cell_key{ids[b.cell].target, ids[b.cell].scheme,
                                 ids[b.cell].attack, &*victims_[vi]};
    }

    // A block's trial results, held until its last trial finishes. The
    // buffer is allocated by the first trial to finish and freed by the
    // reducing thread, so only blocks in flight hold one.
    struct block_slot {
        std::atomic<std::uint64_t> pending{0};
        std::atomic<trial_result*> results{nullptr};
        ~block_slot() { delete[] results.load(std::memory_order_relaxed); }
    };
    std::vector<block_slot> slots(blocks.size());
    for (std::size_t bi = 0; bi < blocks.size(); ++bi)
        slots[bi].pending.store(blocks[bi].trials, std::memory_order_relaxed);

    std::vector<cell_partial> partials(blocks.size());
    std::atomic<std::uint64_t> next{0};
    std::mutex mutex;  // guards first_error, completed and progress_ calls
    std::string first_error;
    std::uint64_t completed = 0;
    std::atomic<bool> failed{false};

    // Work sharing at trial granularity: threads claim single trials in
    // canonical order, so a long block no longer runs alone at the end.
    // The thread that finishes a block's last trial reduces the block with
    // sequential add()s in trial order, so the block's partial is a pure
    // function of (master_seed, block) — never of scheduling.
    auto worker = [&] {
        std::size_t bi = 0;
        // One span per contiguous run of one block's trials on this
        // thread — a no-op when tracing is off, one ring write when on.
        std::optional<obs::span> sp;
        std::size_t sp_block = blocks.size();
        for (;;) {
            if (failed.load(std::memory_order_relaxed)) return;
            const std::uint64_t k = next.fetch_add(1, std::memory_order_relaxed);
            if (k >= total) return;
            while (k >= begin[bi + 1]) ++bi;  // claims only move forward
            const auto& block = blocks[bi];
            if (sp_block != bi) {
                sp.reset();
                sp.emplace("block", "campaign", static_cast<std::int64_t>(block.index));
                sp_block = bi;
            }
            const std::uint64_t t = k - begin[bi];
            const std::uint64_t g = block.first_trial + t;
            trial_result result;
            try {
                result = run_trial(cells[block.cell], spec_,
                                   seeds_for_trial(spec_.master_seed, g));
            } catch (const std::exception& e) {
                std::lock_guard lock{mutex};
                if (first_error.empty())
                    first_error = std::string{"trial "} + std::to_string(g) +
                                  ": " + e.what();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
            auto& slot = slots[bi];
            trial_result* buf = slot.results.load(std::memory_order_acquire);
            if (buf == nullptr) {
                auto* fresh = new trial_result[block.trials];
                if (slot.results.compare_exchange_strong(
                        buf, fresh, std::memory_order_acq_rel,
                        std::memory_order_acquire)) {
                    buf = fresh;
                } else {
                    delete[] fresh;
                }
            }
            buf[t] = result;
            // acq_rel: the last finisher sees every other trial's result.
            if (slot.pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                for (std::uint64_t i = 0; i < block.trials; ++i)
                    partials[bi].add(buf[i]);
                delete[] slot.results.exchange(nullptr, std::memory_order_relaxed);
            }
            if (progress_) {
                std::lock_guard lock{mutex};
                progress_(++completed, total);
            }
        }
    };

    if (jobs == 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(jobs);
        for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
        for (auto& t : pool) t.join();
    }
    if (failed.load())
        throw std::runtime_error{"campaign::engine: " + first_error};
    return partials;
}

}  // namespace pssp::campaign
