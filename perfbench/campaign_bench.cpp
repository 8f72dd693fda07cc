// Campaign benchmark: trials/sec of whole P-SSP attack campaigns on three
// named workloads, plus a traced run that splits the time by layer.
//
//   perfbench_campaign --workload NAME --seed N --seconds S --trace 0|1
//                      [--size full|tiny] [--work-dir DIR]
//
// Workloads (each uses 2 compute threads or processes plus this one):
//   matrix_fixed       default_spec() (nginx x {SSP, RAF-SSP, P-SSP} x
//                      {brute_force, byte_by_byte, leak_replay}), fixed
//                      allocation, in-process engine, 2 threads.
//   leak_sweep_shards  six schemes x leak_replay x three targets, adaptive
//                      with target 0 (round count fixed by the budget),
//                      2 local shards x 1 thread, checkpoint and store on.
//   leak_sweep_fleet   the same spec and durability over the TCP fleet:
//                      a coordinator plus 2 self-spawned localhost nodes.
//
// Untraced (--trace 0), one run: run the whole campaign back to back until
// --seconds have passed and report medians over those repetitions, then
// set up the workload's victims several times in a fresh process (this
// binary with --setup-probes N, which prints N set-up times; median
// setup_s). Every
// repetition's report must be byte-identical to an in-process jobs=1
// engine run of the same spec (and, for the default seed, to a pinned
// digest); a small campaign on the default seed is checked against its
// pinned digest on every run. Deterministic work counts are compared
// across repetitions and across runs of the same seed.
//
// Traced (--trace 1): alternates untraced and traced repetitions for
// --seconds, prints the per-layer metrics gathered around public calls
// (run_traced), and writes one Chrome trace per workload into the work
// directory. perfbench/README.md maps each metric to its layer.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// Human-readable progress goes to stderr.

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/strategy.hpp"
#include "campaign/campaign.hpp"
#include "campaign/engine.hpp"
#include "core/tls_layout.hpp"
#include "dist/coordinator.hpp"
#include "dist/orchestrator.hpp"
#include "dist/wire.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "proc/fork_server.hpp"
#include "store/store.hpp"
#include "util/bytes.hpp"
#include "util/json.hpp"
#include "workload/victim.hpp"

namespace {

using namespace pssp;
using steady = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 2018;
constexpr unsigned kComputeThreads = 2;

double seconds_since(steady::time_point start) {
    return std::chrono::duration<double>(steady::now() - start).count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class transport { in_process, shards, fleet };

struct workload_def {
    std::string name;
    transport mode = transport::in_process;
    campaign::campaign_spec spec;
};

const std::vector<core::scheme_kind>& campaign_schemes() {
    static const std::vector<core::scheme_kind> schemes = {
        core::scheme_kind::ssp,       core::scheme_kind::raf_ssp,
        core::scheme_kind::dynaguard, core::scheme_kind::dcr,
        core::scheme_kind::p_ssp,     core::scheme_kind::p_ssp_owf};
    return schemes;
}

// Metric-name slug of a scheme (core::to_string gives display names).
std::string scheme_slug(core::scheme_kind kind) {
    switch (kind) {
        case core::scheme_kind::ssp: return "ssp";
        case core::scheme_kind::raf_ssp: return "raf_ssp";
        case core::scheme_kind::dynaguard: return "dynaguard";
        case core::scheme_kind::dcr: return "dcr";
        case core::scheme_kind::p_ssp: return "p_ssp";
        case core::scheme_kind::p_ssp_owf: return "p_ssp_owf";
        default: break;
    }
    throw std::invalid_argument{"scheme_slug: not a campaign scheme"};
}

campaign::campaign_spec matrix_spec(std::uint64_t seed, bool tiny) {
    auto spec = campaign::default_spec();
    spec.trials_per_cell = tiny ? 2 : 64;
    spec.query_budget = 4096;
    spec.master_seed = seed;
    spec.jobs = kComputeThreads;
    return spec;
}

campaign::campaign_spec leak_spec(std::uint64_t seed, bool tiny) {
    campaign::campaign_spec spec;
    spec.schemes = campaign_schemes();
    spec.attacks = {attack::attack_kind::leak_replay};
    spec.targets = workload::all_target_kinds();
    spec.trials_per_cell = tiny ? 4 : 4096;
    spec.master_seed = seed;
    spec.jobs = kComputeThreads;
    // Adaptive rounds that never stop early: the round count is fixed by
    // the budget, trials_per_cell / (64 x 16) = 4 rounds of 16 blocks per
    // cell. Few, large rounds (rather than one block per cell per round)
    // keep worker start-up and the round barrier, which swing with host
    // load, from setting the whole wall time.
    spec.adaptive = true;
    spec.target_ci_halfwidth = 0.0;
    spec.round_blocks = 16 * spec.cell_count();
    return spec;
}

std::optional<workload_def> make_workload(const std::string& name,
                                          std::uint64_t seed, bool tiny) {
    if (name == "matrix_fixed")
        return workload_def{name, transport::in_process, matrix_spec(seed, tiny)};
    if (name == "leak_sweep_shards")
        return workload_def{name, transport::shards, leak_spec(seed, tiny)};
    if (name == "leak_sweep_fleet")
        return workload_def{name, transport::fleet, leak_spec(seed, tiny)};
    return std::nullopt;
}

// FNV-1a of the in-process report of a workload's spec on the default
// seed (--print-digests regenerates them). The two leak sweeps share a
// spec. "tiny" is the smoke size, which every run re-checks whatever its
// --seed.
std::uint64_t pinned_digest(const workload_def& w, bool tiny) {
    if (w.mode == transport::in_process)
        return tiny ? 0x93bd3b19ff451e4cull : 0x5f522042eba4e8e4ull;
    return tiny ? 0x24ce8a5110565106ull : 0xa8a533cf8304e131ull;
}

// ---------------------------------------------------------------------------
// Process accounting and registry reads
// ---------------------------------------------------------------------------

double cpu_seconds() {
    double total = 0.0;
    for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        ::getrusage(who, &ru);
        total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
                 1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                            ru.ru_stime.tv_usec);
    }
    return total;
}

// Largest max-RSS of this process or any reaped descendant, in MiB. Both
// are lifetime high-water marks that cannot be reset, so run_untraced reads
// them right after the measured repetitions, before any other work.
double peak_rss_mb() {
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

// Counter value or histogram {count, sum} by name; 0 for unknown names.
struct registry_reading {
    std::map<std::string, std::uint64_t> values;  // counter/gauge values
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hists;

    static registry_reading now() {
        registry_reading r;
        for (const auto& m : obs::snapshot()) {
            if (m.type == obs::metric_type::histogram)
                r.hists[m.name] = {m.count, m.sum};
            else
                r.values[m.name] = m.value;
        }
        return r;
    }
    [[nodiscard]] std::uint64_t value(const std::string& name) const {
        const auto it = values.find(name);
        return it == values.end() ? 0 : it->second;
    }
    [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> hist(
        const std::string& name) const {
        const auto it = hists.find(name);
        return it == hists.end() ? std::pair<std::uint64_t, std::uint64_t>{0, 0}
                                 : it->second;
    }
};

struct registry_delta {
    registry_reading before;
    registry_reading after;
    [[nodiscard]] std::uint64_t value(const std::string& name) const {
        return after.value(name) - before.value(name);
    }
    [[nodiscard]] std::uint64_t hist_count(const std::string& name) const {
        return after.hist(name).first - before.hist(name).first;
    }
    [[nodiscard]] std::uint64_t hist_sum(const std::string& name) const {
        return after.hist(name).second - before.hist(name).second;
    }
    [[nodiscard]] double hist_mean(const std::string& name) const {
        const auto n = hist_count(name);
        return n == 0 ? 0.0
                      : static_cast<double>(hist_sum(name)) /
                            static_cast<double>(n);
    }
};

// Oracle requests in a report: per cell, mean queries x trials.
std::uint64_t report_queries(const campaign::campaign_report& report) {
    std::uint64_t total = 0;
    for (const auto& cell : report.cells)
        total += static_cast<std::uint64_t>(std::llround(
            cell.queries.mean() * static_cast<double>(cell.trials)));
    return total;
}

// ---------------------------------------------------------------------------
// Running one campaign through the workload's transport
// ---------------------------------------------------------------------------

struct rep_hooks {
    std::function<void(const obs::round_summary&)> round_observer;
    std::vector<double>* ingest_ms = nullptr;  // per accepted round
    double* finalize_ms = nullptr;
};

struct rep_result {
    campaign::campaign_report report;
    double wall_s = 0.0;
};

// One whole campaign: spec handed over -> merged report, including the
// store's finalize for the durable transports, whose checkpoint and store
// live in `scratch` for the repetition.
rep_result run_campaign(const workload_def& w, const std::filesystem::path& scratch,
                        const rep_hooks& hooks = {}) {
    if (w.mode == transport::in_process) {
        const auto start = steady::now();
        auto report = campaign::engine{w.spec}.run();
        return {std::move(report), seconds_since(start)};
    }
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);

    const auto start = steady::now();
    dist::sharded_options options;
    options.shards = kComputeThreads;
    options.jobs_per_shard = 1;
    options.checkpoint_dir = (scratch / "checkpoint").string();
    options.postmortem_dir = scratch.string();
    if (w.mode == transport::fleet) {
        dist::net_options net;
        net.fleet_workers = kComputeThreads;
        options.net = std::move(net);
    }
    auto result_store =
        store::store_writer::open((scratch / "store").string(), w.spec, false);
    options.block_ingest = [&](std::uint64_t round,
                               std::span<const dist::partial_block> blocks) {
        const auto t0 = steady::now();
        result_store.ingest_blocks(round, blocks);
        if (hooks.ingest_ms != nullptr)
            hooks.ingest_ms->push_back(1e3 * seconds_since(t0));
    };
    options.round_observer = [&](const obs::round_summary& r) {
        result_store.ingest_round(r);
        if (hooks.round_observer) hooks.round_observer(r);
    };
    auto report = dist::run_sharded(w.spec, options);
    const auto t_fin = steady::now();
    result_store.finalize(report, obs::metrics_json());
    if (hooks.finalize_ms != nullptr) *hooks.finalize_ms = 1e3 * seconds_since(t_fin);
    return {std::move(report), seconds_since(start)};
}

std::string reference_json(campaign::campaign_spec spec) {
    spec.jobs = 1;
    return campaign::engine{spec}.run().to_json();
}

// ---------------------------------------------------------------------------
// Setup probe: victim builds + first master boots (+ fleet registration)
// ---------------------------------------------------------------------------

struct setup_sample {
    double total_s = 0.0;
    double make_victim_ms = 0.0;  // mean per build
    double boot_ms = 0.0;         // mean first acquire per victim
    std::uint64_t victims = 0;
};

setup_sample probe_setup(const workload_def& w) {
    setup_sample s;
    const auto start = steady::now();
    double build_s = 0.0;
    double boot_s = 0.0;
    for (const auto target : w.spec.targets) {
        for (const auto scheme : w.spec.schemes) {
            const auto t0 = steady::now();
            const auto victim =
                workload::make_victim(target, scheme, w.spec.scheme_options);
            build_s += seconds_since(t0);
            const auto t1 = steady::now();
            {
                auto lease = victim.lease_server(
                    campaign::seeds_for_trial(w.spec.master_seed, 0).server);
                (void)lease;
            }
            boot_s += seconds_since(t1);
            ++s.victims;
        }
    }
    if (w.mode == transport::fleet) {
        dist::net_options net;
        net.fleet_workers = kComputeThreads;
        dist::coordinator coord{net, dist::fault_policy{},
                                dist::spec_digest(w.spec)};
        const auto deadline = steady::now() + std::chrono::seconds{30};
        while (coord.registered_workers() < kComputeThreads) {
            if (steady::now() > deadline)
                throw std::runtime_error{"fleet nodes did not register"};
            coord.pump(20);
        }
    }
    s.total_s = seconds_since(start);
    s.make_victim_ms = 1e3 * build_s / static_cast<double>(s.victims);
    s.boot_ms = 1e3 * boot_s / static_cast<double>(s.victims);
    return s;
}

// Runs `probes` setup probes in a fresh process (this binary, exec'd with
// --setup-probes) and returns their times. Set-up is timed there, not
// here, because a user's campaign sets up in a fresh process: in this one
// the repetitions have shaped the allocator (most likely a freed large
// buffer raising glibc's dynamic mmap and trim thresholds, so that victim
// builds reuse warm heap pages), which made setup_s up to 6x lower on
// some seeds only.
std::vector<double> probe_setup_fresh(const workload_def& w, std::uint64_t seed,
                                      bool tiny, unsigned probes) {
    const std::string seed_arg = std::to_string(seed);
    const std::string probes_arg = std::to_string(probes);
    const char* argv[] = {"perfbench_campaign", "--workload", w.name.c_str(),
                          "--seed", seed_arg.c_str(), "--size",
                          tiny ? "tiny" : "full", "--setup-probes",
                          probes_arg.c_str(), nullptr};
    int fds[2];
    if (::pipe(fds) != 0) throw std::runtime_error{"setup probe: pipe failed"};
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error{"setup probe: fork failed"};
    if (pid == 0) {
        ::dup2(fds[1], STDOUT_FILENO);
        ::close(fds[0]);
        ::close(fds[1]);
        ::execv("/proc/self/exe", const_cast<char* const*>(argv));
        ::_exit(127);
    }
    ::close(fds[1]);
    std::string text;
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
        if (n < 0 && errno == EINTR) continue;
        if (n < 0) break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error{"setup probe process failed"};
    std::vector<double> times;
    for (std::size_t pos = 0, end; pos < text.size(); pos = end + 1) {
        end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        if (end > pos) times.push_back(std::stod(text.substr(pos, end - pos)));
    }
    if (times.size() != probes)
        throw std::runtime_error{"setup probe process gave " +
                                 std::to_string(times.size()) + " of " +
                                 probes_arg + " times"};
    return times;
}

// ---------------------------------------------------------------------------
// Serve probe: one benign and one canary-smashing request per scheme.
// "ok" metrics time the benign request, "canary_crash" the smashing one
// ---------------------------------------------------------------------------

struct serve_probe_result {
    std::map<std::string, double> ok_us;     // scheme slug -> median
    std::map<std::string, double> crash_us;  // scheme slug -> median
    std::uint64_t checks = 0;
    std::uint64_t mismatches = 0;
};

serve_probe_result probe_serve(std::uint64_t seed, unsigned repeats) {
    serve_probe_result r;
    for (const auto scheme : campaign_schemes()) {
        const auto victim =
            workload::make_victim(workload::target_kind::nginx, scheme);
        auto lease = victim.lease_server(seed);
        const std::string benign(std::min<std::uint64_t>(victim.prefix_bytes / 2, 16),
                                 'a');
        const std::string smash(victim.prefix_bytes + victim.canary_bytes, 'A');
        std::vector<double> ok;
        std::vector<double> crash;
        for (unsigned i = 0; i < repeats; ++i) {
            for (const bool smashing : {false, true}) {
                const auto t0 = steady::now();
                const auto res = lease->serve(smashing ? smash : benign);
                const double us = 1e6 * seconds_since(t0);
                // RAF-SSP renews C in every worker, so even a benign
                // request dies on the inherited accept-loop frame's check
                // (the paper's Section II-C caveat, pinned by the repo's
                // byte_by_byte tests).
                const auto want =
                    smashing || scheme == core::scheme_kind::raf_ssp
                        ? proc::worker_outcome::crashed_canary
                        : proc::worker_outcome::ok;
                ++r.checks;
                if (res.outcome != want) {
                    ++r.mismatches;
                    std::fprintf(stderr,
                                 "serve probe: %s %s request gave %s\n",
                                 scheme_slug(scheme).c_str(),
                                 smashing ? "smashing" : "benign",
                                 proc::to_string(res.outcome).c_str());
                }
                (smashing ? crash : ok).push_back(us);
            }
        }
        r.ok_us[scheme_slug(scheme)] = median(ok);
        r.crash_us[scheme_slug(scheme)] = median(crash);
    }
    return r;
}

// ---------------------------------------------------------------------------
// Deterministic work counts
// ---------------------------------------------------------------------------

struct work_counts {
    std::uint64_t trials = 0;
    std::uint64_t queries = 0;
    std::uint64_t serve_requests = 0;  // in-process jobs=1 reference run
    std::uint64_t guest_steps = 0;
    std::uint64_t reboots = 0;
    std::uint64_t dirty_pages = 0;     // reboot + fork dirty pages
    std::uint64_t spawned_workers = 0;  // per repetition
    std::uint64_t net_leases = 0;       // per repetition

    [[nodiscard]] std::string to_json() const {
        char buf[512];
        std::snprintf(
            buf, sizeof buf,
            "{\"trials\": %llu, \"queries\": %llu, \"serve_requests\": %llu, "
            "\"guest_steps\": %llu, \"reboots\": %llu, \"dirty_pages\": %llu, "
            "\"spawned_workers\": %llu, \"net_leases\": %llu}",
            static_cast<unsigned long long>(trials),
            static_cast<unsigned long long>(queries),
            static_cast<unsigned long long>(serve_requests),
            static_cast<unsigned long long>(guest_steps),
            static_cast<unsigned long long>(reboots),
            static_cast<unsigned long long>(dirty_pages),
            static_cast<unsigned long long>(spawned_workers),
            static_cast<unsigned long long>(net_leases));
        return buf;
    }
};

// Identity of the benchmark binary: counts recorded by another build of
// the program are not comparable and get replaced, not compared.
std::string binary_identity(const std::filesystem::path& binary) {
    struct stat st{};
    if (::stat(binary.c_str(), &st) != 0) return "unknown";
    return std::to_string(st.st_size) + "-" + std::to_string(st.st_mtim.tv_sec) +
           "." + std::to_string(st.st_mtim.tv_nsec);
}

// Compares `counts` with the record of an earlier run of the same
// workload, seed and size (same binary), or records them. False on a
// mismatch.
bool check_recorded_counts(const std::filesystem::path& work_dir,
                           const std::filesystem::path& binary,
                           const std::string& key, const work_counts& counts) {
    const auto dir = work_dir / "counts";
    std::filesystem::create_directories(dir);
    const auto path = dir / (key + ".txt");
    const std::string identity = binary_identity(binary);
    const std::string line = identity + " " + counts.to_json();
    std::ifstream in{path};
    std::string recorded;
    if (in && std::getline(in, recorded)) {
        const auto space = recorded.find(' ');
        if (space != std::string::npos &&
            recorded.substr(0, space) == identity) {
            if (recorded == line) return true;
            std::fprintf(stderr,
                         "work counts differ from an earlier run of %s:\n"
                         "  earlier: %s\n  now:     %s\n",
                         key.c_str(), recorded.c_str(), line.c_str());
            return false;
        }
    }
    std::ofstream out{path, std::ios::trunc};
    out << line << "\n";
    return true;
}

// ---------------------------------------------------------------------------
// The re-driven trial loop (traced runs)
// ---------------------------------------------------------------------------

// Per attack kind, gathered across worker threads.
struct kind_stats {
    std::vector<double> execute_ms;
    std::uint64_t queries = 0;
};

struct redrive_result {
    campaign::campaign_report report;
    double wall_s = 0.0;        // victim builds + trial loop
    double loop_wall_s = 0.0;   // trial loop only
    double busy_s = 0.0;        // sum over threads of trial time
    double acquire_s = 0.0;     // sum of lease_server time
    double execute_s = 0.0;     // sum of execute time
    std::uint64_t trials = 0;
    std::map<attack::attack_kind, kind_stats> kinds;
};

// Drives the same trials campaign::engine::run_blocks drives, from
// outside: per trial the engine's seeds, victim::lease_server,
// attack_strategy::execute, then cell_partial::add in trial order and
// assemble_report over every block — so the report must be byte-identical
// to engine::run() for a fixed spec. A span surrounds each public call.
redrive_result redrive(const campaign::campaign_spec& spec, unsigned jobs) {
    redrive_result r;
    const auto start = steady::now();
    const auto ids = campaign::cells_for(spec);
    const auto blocks = campaign::blocks_for(spec);
    const std::size_t n_attacks = spec.attacks.size();

    std::vector<std::optional<workload::victim>> victims(spec.targets.size() *
                                                         spec.schemes.size());
    for (const auto& b : blocks) {
        auto& v = victims[b.cell / n_attacks];
        if (v.has_value()) continue;
        obs::span sp{"perfbench.make_victim", "perfbench"};
        v.emplace(workload::make_victim(ids[b.cell].target, ids[b.cell].scheme,
                                        spec.scheme_options));
        v->pool->set_idle_limit(jobs);
    }
    std::map<attack::attack_kind, std::unique_ptr<attack::attack_strategy>>
        strategies;
    for (const auto kind : spec.attacks) strategies[kind] = attack::make_strategy(kind);

    std::vector<campaign::cell_partial> partials(blocks.size());
    std::atomic<std::size_t> next{0};
    std::mutex merge_mutex;
    std::string first_error;

    const auto loop_start = steady::now();
    auto worker = [&] {
        redrive_result local;
        try {
            for (;;) {
                const std::size_t bi = next.fetch_add(1);
                if (bi >= blocks.size()) break;
                const auto& block = blocks[bi];
                const auto& id = ids[block.cell];
                const auto& victim = *victims[block.cell / n_attacks];
                const auto& strategy = *strategies.at(id.attack);
                auto& ks = local.kinds[id.attack];
                for (std::uint64_t t = 0; t < block.trials; ++t) {
                    const auto seeds = campaign::seeds_for_trial(
                        spec.master_seed, block.first_trial + t);
                    const auto t0 = steady::now();
                    std::optional<proc::master_pool::lease> lease;
                    {
                        obs::span sp{"perfbench.lease_server", "perfbench"};
                        lease.emplace(victim.lease_server(seeds.server));
                    }
                    const auto t1 = steady::now();
                    proc::fork_server& oracle = lease->server();
                    attack::attack_context ctx{
                        .oracle = oracle,
                        .scheme = id.scheme,
                        .prefix_bytes = victim.prefix_bytes,
                        .canary_bytes = victim.canary_bytes,
                        .ret_target = victim.ret_target,
                        .saved_rbp = victim.saved_rbp,
                        .seed = seeds.attacker,
                        .query_budget = spec.query_budget,
                        .true_canary_hint = 0,
                        .unknown_bits = spec.brute_unknown_bits,
                        .dcr_offset = 0,
                    };
                    if (id.attack == attack::attack_kind::brute_force)
                        ctx.true_canary_hint =
                            core::tls_load(oracle.master(), core::tls_canary);
                    attack::attack_outcome outcome;
                    {
                        obs::span sp{"perfbench.execute", "perfbench",
                                     static_cast<std::int64_t>(id.attack)};
                        outcome = strategy.execute(ctx);
                    }
                    const auto t2 = steady::now();
                    lease.reset();
                    const auto t3 = steady::now();
                    partials[bi].add(campaign::trial_result{
                        .hijacked = outcome.hijacked,
                        .detected = outcome.detected,
                        .oracle_queries = outcome.oracle_queries,
                        .canary_detections = outcome.canary_detections,
                        .other_crashes = outcome.other_crashes,
                        .leaked_bytes_valid = outcome.leaked_bytes_valid,
                    });
                    const double acquire =
                        std::chrono::duration<double>(t1 - t0).count();
                    const double execute =
                        std::chrono::duration<double>(t2 - t1).count();
                    local.acquire_s += acquire;
                    local.execute_s += execute;
                    local.busy_s += std::chrono::duration<double>(t3 - t0).count();
                    ++local.trials;
                    ks.execute_ms.push_back(1e3 * execute);
                    ks.queries += outcome.oracle_queries;
                }
            }
        } catch (const std::exception& e) {
            std::lock_guard lock{merge_mutex};
            if (first_error.empty()) first_error = e.what();
            next.store(blocks.size());
        }
        std::lock_guard lock{merge_mutex};
        r.busy_s += local.busy_s;
        r.acquire_s += local.acquire_s;
        r.execute_s += local.execute_s;
        r.trials += local.trials;
        for (auto& [kind, ks] : local.kinds) {
            auto& dst = r.kinds[kind];
            dst.execute_ms.insert(dst.execute_ms.end(), ks.execute_ms.begin(),
                                  ks.execute_ms.end());
            dst.queries += ks.queries;
        }
    };
    {
        std::vector<std::jthread> pool;
        for (unsigned j = 1; j < jobs; ++j) pool.emplace_back(worker);
        worker();
    }
    if (!first_error.empty())
        throw std::runtime_error{"re-driven trial loop: " + first_error};
    r.loop_wall_s = seconds_since(loop_start);
    r.report = campaign::assemble_report(spec, blocks, partials);
    r.wall_s = seconds_since(start);
    return r;
}

// Sum of span durations by name in a Chrome trace export, milliseconds.
std::map<std::string, double> span_ms_by_name(const std::string& trace) {
    std::map<std::string, double> out;
    const auto doc = util::parse_json(trace);
    for (const auto& ev : doc.at("traceEvents").elements()) {
        const auto* ph = ev.find("ph");
        const auto* dur = ev.find("dur");
        if (ph == nullptr || dur == nullptr || ph->as_string() != "X") continue;
        out[ev.at("name").as_string()] += dur->as_double() / 1e3;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct run_outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<metric> metrics;

    // Counts `weight` attempts, all failed unless `ok`. A report check
    // weighs its trials: a mismatching report vouches for none of them.
    void check(bool ok, const std::string& what, std::uint64_t weight = 1) {
        attempted += weight;
        if (ok) return;
        failed += weight;
        correct = false;
        std::fprintf(stderr, "output check failed: %s\n", what.c_str());
    }
    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

void print_result(const run_outcome& out) {
    std::string line = "{\"correct\": ";
    line += out.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const auto& m = out.metrics[i];
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        line += std::string{i == 0 ? "" : ", "} + "\"" +
                util::json_escape(m.name) + "\": {\"value\": " + value +
                ", \"unit\": \"" + util::json_escape(m.unit) + "\"}";
    }
    line += "}}";
    std::fflush(stderr);
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The two run kinds
// ---------------------------------------------------------------------------

struct options {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool tiny = false;
    std::filesystem::path work_dir = ".bench_build/perfbench-work";
    std::filesystem::path binary;  // argv[0]
    unsigned setup_probes = 0;     // > 0: only print that many setup times
};

// Output checks every run makes, whatever its seed: the reference report
// against its pin on the default seed, and a small pinned campaign. False
// if either fails; the reference then vouches for no repetition.
bool check_pins(const workload_def& w, const options& opt,
                const std::string& reference, run_outcome& out) {
    bool ok = true;
    if (opt.seed == kDefaultSeed) {
        ok = util::fnv1a64(reference) == pinned_digest(w, opt.tiny);
        out.check(ok, "reference report digest differs from the pinned digest");
    }
    const auto small = make_workload(w.name, kDefaultSeed, /*tiny=*/true);
    const bool small_ok =
        util::fnv1a64(reference_json(small->spec)) == pinned_digest(w, true);
    out.check(small_ok, "pinned default-seed smoke campaign digest differs");
    return ok && small_ok;
}

int run_untraced(const workload_def& w, const options& opt) {
    run_outcome out;
    const auto scratch = opt.work_dir / "campaign";

    // Measured repetitions come first, so that peak_rss_mb covers them
    // alone. Their reports are checked once the reference exists: each
    // distinct report is kept, with the repetitions that gave it.
    std::vector<double> trials_per_s;
    std::vector<double> queries_per_s;
    std::vector<double> cpu_per_ktrial;
    std::vector<std::string> reports;
    struct checked_rep {
        unsigned rep;
        std::size_t report;  // index into `reports`
        std::uint64_t trials;
    };
    std::vector<checked_rep> checked;
    work_counts counts;
    bool counts_stable = true;
    const auto start = steady::now();
    for (unsigned rep = 0; rep < 1 || seconds_since(start) < opt.seconds; ++rep) {
        const auto before = registry_reading::now();
        const double cpu0 = cpu_seconds();
        rep_result res;
        try {
            res = run_campaign(w, scratch);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "repetition %u failed: %s\n", rep, e.what());
            out.attempted += w.spec.trial_count();
            out.failed += w.spec.trial_count();
            out.correct = false;
            continue;
        }
        const double cpu = cpu_seconds() - cpu0;
        const registry_delta d{before, registry_reading::now()};
        const std::uint64_t trials = res.report.total_trials();
        const std::uint64_t queries = report_queries(res.report);
        const std::uint64_t spawned = d.value("dist.spawned_workers");
        const std::uint64_t leases = d.value("dist.net.leases");
        // Failed or retried operations inside the repetition.
        const std::uint64_t recovered =
            d.value("dist.retries") + d.value("dist.timeouts") +
            d.value("dist.crashes") + d.value("dist.bad_partials");
        out.attempted += spawned + leases;
        out.failed += recovered;
        std::string json = res.report.to_json();
        auto known = std::find(reports.begin(), reports.end(), json);
        if (known == reports.end())
            known = reports.insert(reports.end(), std::move(json));
        checked.push_back({rep, static_cast<std::size_t>(known - reports.begin()),
                           trials});
        if (checked.size() == 1) {
            counts.trials = trials;
            counts.queries = queries;
            counts.spawned_workers = spawned;
            counts.net_leases = leases;
        } else if (counts.trials != trials || counts.queries != queries ||
                   counts.spawned_workers != spawned ||
                   counts.net_leases != leases) {
            counts_stable = false;
        }
        trials_per_s.push_back(static_cast<double>(trials) / res.wall_s);
        queries_per_s.push_back(static_cast<double>(queries) / res.wall_s);
        cpu_per_ktrial.push_back(cpu / (static_cast<double>(trials) / 1e3));
        std::fprintf(stderr,
                     "%s rep %u: %.3f s, %llu trials, %llu queries, cpu %.3f s\n",
                     w.name.c_str(), rep, res.wall_s,
                     static_cast<unsigned long long>(trials),
                     static_cast<unsigned long long>(queries), cpu);
    }
    const double peak_rss = peak_rss_mb();

    // Set-up time, several times; the median is reported.
    const auto setups =
        probe_setup_fresh(w, opt.seed, opt.tiny, opt.tiny ? 1 : 151);

    // Reference: in-process engine at jobs=1, with the proc/vm counts.
    const auto ref_delta_before = registry_reading::now();
    const std::string reference = reference_json(w.spec);
    const registry_delta ref_delta{ref_delta_before, registry_reading::now()};
    counts.serve_requests = ref_delta.value("proc.serve.requests");
    counts.guest_steps = ref_delta.hist_sum("proc.serve.worker_steps");
    counts.reboots = ref_delta.value("proc.server.reboots");
    counts.dirty_pages = ref_delta.hist_sum("proc.reboot.dirty_pages") +
                         ref_delta.hist_sum("proc.fork.dirty_pages");
    const bool reference_ok = check_pins(w, opt, reference, out);
    for (const auto& c : checked)
        out.check(reference_ok && reports[c.report] == reference,
                  "repetition " + std::to_string(c.rep) +
                      " report differs from the in-process jobs=1 reference",
                  c.trials);

    const auto serve = probe_serve(w.spec.master_seed, opt.tiny ? 2 : 20);
    out.attempted += serve.checks;
    out.failed += serve.mismatches;
    if (serve.mismatches != 0) out.correct = false;

    std::fprintf(stderr, "%s work counts: %s\n", w.name.c_str(),
                 counts.to_json().c_str());
    const std::string key = w.name + "-" + std::to_string(opt.seed) + "-" +
                            (opt.tiny ? "tiny" : "full");
    if (!counts_stable || !check_recorded_counts(opt.work_dir, opt.binary, key, counts)) {
        std::fprintf(stderr,
                     "deterministic work counts did not repeat: this is a bug "
                     "in the benchmark\n");
        return 3;
    }

    const double failed_ratio =
        static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    out.add("trials_per_s", median(trials_per_s), "1/s");
    out.add("queries_per_s", median(queries_per_s), "1/s");
    out.add("setup_s", median(setups), "s");
    out.add("cpu_s_per_ktrial", median(cpu_per_ktrial), "s");
    out.add("peak_rss_mb", peak_rss, "MiB");
    out.add("ok_ratio", 1.0 - failed_ratio, "ratio");
    print_result(out);
    return 0;
}

void add_attack_metrics(const redrive_result& r, run_outcome& out) {
    for (const auto kind : attack::all_attack_kinds()) {
        const std::string prefix = "attack." + attack::to_string(kind) + ".";
        const auto it = r.kinds.find(kind);
        const kind_stats empty;
        const auto& ks = it == r.kinds.end() ? empty : it->second;
        const double n = static_cast<double>(ks.execute_ms.size());
        out.add(prefix + "execute_ms_p50", percentile(ks.execute_ms, 0.5), "ms");
        out.add(prefix + "execute_ms_p90", percentile(ks.execute_ms, 0.9), "ms");
        out.add(prefix + "queries_per_trial",
                n == 0 ? 0.0 : static_cast<double>(ks.queries) / n, "count");
        double execute_ms = 0.0;
        for (const double ms : ks.execute_ms) execute_ms += ms;
        out.add(prefix + "us_per_query",
                ks.queries == 0 ? 0.0
                                : 1e3 * execute_ms / static_cast<double>(ks.queries),
                "us");
    }
}

int run_traced(const workload_def& w, const options& opt) {
    run_outcome out;
    const auto scratch = opt.work_dir / "campaign";

    std::vector<double> make_victim_ms;
    std::vector<double> boot_ms;
    std::uint64_t victims = 0;
    for (unsigned i = 0; i < (opt.tiny ? 1u : 3u); ++i) {
        const auto s = probe_setup(w);
        make_victim_ms.push_back(s.make_victim_ms);
        boot_ms.push_back(s.boot_ms);
        victims = s.victims;
    }
    const auto serve = probe_serve(w.spec.master_seed, opt.tiny ? 2 : 20);
    out.attempted += serve.checks;
    out.failed += serve.mismatches;
    if (serve.mismatches != 0) out.correct = false;

    const std::string reference = reference_json(w.spec);
    const bool reference_ok = check_pins(w, opt, reference, out);
    obs::set_ring_capacity(1u << 18);

    // Untraced and traced repetitions alternate until --seconds have
    // passed. The last traced repetition gives the per-layer numbers and
    // the Chrome trace; the medians of both kinds give the trace overhead.
    std::vector<double> untraced_tps;
    std::vector<double> traced_tps;
    std::vector<double> round_ms;
    std::vector<double> shard_wall_ms;
    std::vector<double> round_overhead_ms;
    std::vector<double> ingest_ms;
    double finalize_ms = 0.0;
    double overhead_s = 0.0;
    std::optional<registry_delta> dist_delta;
    redrive_result rd;
    registry_delta d;
    const auto start = steady::now();
    for (unsigned i = 0; i == 0 || seconds_since(start) < opt.seconds; ++i) {
        const auto untraced = run_campaign(w, scratch);
        untraced_tps.push_back(
            static_cast<double>(untraced.report.total_trials()) / untraced.wall_s);
        out.check(reference_ok && untraced.report.to_json() == reference,
                  "untraced report differs from the in-process jobs=1 reference",
                  untraced.report.total_trials());

        round_ms.clear();
        shard_wall_ms.clear();
        round_overhead_ms.clear();
        ingest_ms.clear();
        obs::clear_spans_for_test();
        obs::enable_tracing(true);
        if (w.mode != transport::in_process) {
            // The sharded transport, traced, with the round observer and a
            // timed store ingest hook.
            rep_hooks hooks;
            hooks.round_observer = [&](const obs::round_summary& r) {
                double max_shard = 0.0;
                for (const auto& s : r.shards)
                    max_shard = std::max(max_shard, s.wall_seconds);
                round_ms.push_back(1e3 * r.wall_seconds);
                shard_wall_ms.push_back(1e3 * max_shard);
                round_overhead_ms.push_back(1e3 * (r.wall_seconds - max_shard));
            };
            hooks.ingest_ms = &ingest_ms;
            hooks.finalize_ms = &finalize_ms;
            const auto before = registry_reading::now();
            const auto traced = run_campaign(w, scratch, hooks);
            dist_delta = registry_delta{before, registry_reading::now()};
            traced_tps.push_back(static_cast<double>(traced.report.total_trials()) /
                                 traced.wall_s);
            out.check(reference_ok && traced.report.to_json() == reference,
                      "traced sharded report differs from the reference",
                      traced.report.total_trials());
            // Sharded wall minus in-process wall of the same spec and
            // thread count, both untraced.
            obs::enable_tracing(false);
            const auto t0 = steady::now();
            const auto inproc = campaign::engine{w.spec}.run();
            overhead_s = untraced.wall_s - seconds_since(t0);
            out.check(reference_ok && inproc.to_json() == reference,
                      "in-process report differs from the reference",
                      inproc.total_trials());
            obs::enable_tracing(true);
        }

        // The re-driven trial loop gives the proc / vm / attack / campaign
        // layers (for the sharded workloads, from an in-process run of the
        // same spec: worker registries do not reach this process).
        const auto before = registry_reading::now();
        rd = redrive(w.spec, kComputeThreads);
        d = registry_delta{before, registry_reading::now()};
        obs::enable_tracing(false);
        if (w.mode == transport::in_process)
            traced_tps.push_back(static_cast<double>(rd.trials) / rd.wall_s);
        out.check(reference_ok && rd.report.to_json() == reference,
                  "re-driven report differs from engine::run()", rd.trials);
    }

    const std::string trace = obs::chrome_trace_json("perfbench " + w.name);
    const auto spans = span_ms_by_name(trace);
    const auto trace_dir = opt.work_dir / "traces";
    std::filesystem::create_directories(trace_dir);
    {
        std::ofstream f{trace_dir / (w.name + ".json"), std::ios::trunc};
        f << trace;
    }
    std::fprintf(stderr, "trace written to %s\n",
                 (trace_dir / (w.name + ".json")).c_str());

    auto span_ms = [&](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? 0.0 : it->second;
    };
    auto dist_count = [&](const char* name) {
        return dist_delta.has_value() ? static_cast<double>(dist_delta->value(name))
                                      : 0.0;
    };

    const double requests = static_cast<double>(d.value("proc.serve.requests"));
    const double steps = static_cast<double>(d.hist_sum("proc.serve.worker_steps"));
    const double trials = static_cast<double>(rd.trials);

    out.add("workload.make_victim_ms", median(make_victim_ms), "ms");
    out.add("workload.make_victim_count", static_cast<double>(victims), "count");
    out.add("proc.boot_ms", median(boot_ms), "ms");
    out.add("proc.acquire_us", 1e6 * rd.acquire_s / trials, "us");
    out.add("proc.reboot_dirty_pages", d.hist_mean("proc.reboot.dirty_pages"), "pages");
    out.add("proc.requests", requests, "count");
    out.add("proc.crashes", static_cast<double>(d.value("proc.serve.crashes")), "count");
    out.add("proc.fork_dirty_pages", d.hist_mean("proc.fork.dirty_pages"), "pages");
    for (const auto scheme : campaign_schemes())
        out.add("proc.serve_us.ok." + scheme_slug(scheme),
                serve.ok_us.at(scheme_slug(scheme)), "us");
    for (const auto scheme : campaign_schemes())
        out.add("proc.serve_us.canary_crash." + scheme_slug(scheme),
                serve.crash_us.at(scheme_slug(scheme)), "us");
    out.add("vm.guest_steps", steps, "count");
    out.add("vm.steps_per_request", requests == 0 ? 0.0 : steps / requests, "steps");
    out.add("vm.host_ns_per_step", steps == 0 ? 0.0 : 1e9 * rd.execute_s / steps, "ns");
    add_attack_metrics(rd, out);
    out.add("campaign.worker_busy_s", rd.busy_s, "s");
    out.add("campaign.worker_idle_s",
            std::max(0.0, kComputeThreads * rd.loop_wall_s - rd.busy_s), "s");
    out.add("dist.round_ms_p50", median(round_ms), "ms");
    out.add("dist.round_ms_max", percentile(round_ms, 1.0), "ms");
    out.add("dist.shard_wall_ms", median(shard_wall_ms), "ms");
    out.add("dist.round_overhead_ms", median(round_overhead_ms), "ms");
    out.add("dist.overhead_s", overhead_s, "s");
    out.add("dist.wire.encode_ms", span_ms("wire.encode"), "ms");
    out.add("dist.wire.decode_ms", span_ms("wire.decode"), "ms");
    for (const char* name :
         {"dist.spawned_workers", "dist.net.leases", "dist.net.heartbeats",
          "dist.retries", "dist.requeued_blocks", "dist.timeouts",
          "dist.crashes", "dist.bad_partials"})
        out.add(name, dist_count(name), "count");
    out.add("store.ingest_ms", median(ingest_ms), "ms");
    out.add("store.finalize_ms", finalize_ms, "ms");
    out.add("obs.trace_overhead", 1.0 - median(traced_tps) / median(untraced_tps),
            "ratio");
    print_result(out);
    return 0;
}

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload matrix_fixed|leak_sweep_shards|"
                 "leak_sweep_fleet --seed N --seconds S --trace 0|1\n"
                 "          [--size full|tiny] [--work-dir DIR]\n"
                 "       %s --print-digests\n",
                 argv0, argv0);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    opt.binary = argv[0];
    bool print_digests = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) throw std::invalid_argument{arg + " needs a value"};
            return argv[++i];
        };
        try {
            if (arg == "--workload") opt.workload = value();
            else if (arg == "--seed") opt.seed = std::stoull(value());
            else if (arg == "--seconds") opt.seconds = std::stod(value());
            else if (arg == "--trace") {
                const auto trace = value();
                if (trace != "0" && trace != "1") return usage(argv[0]);
                opt.trace = trace == "1";
            }
            else if (arg == "--size") {
                const auto size = value();
                if (size != "full" && size != "tiny") return usage(argv[0]);
                opt.tiny = size == "tiny";
            }
            else if (arg == "--work-dir") opt.work_dir = value();
            else if (arg == "--print-digests") print_digests = true;
            else if (arg == "--setup-probes") opt.setup_probes = std::stoul(value());
            else return usage(argv[0]);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "%s\n", e.what());
            return usage(argv[0]);
        }
    }
    try {
        if (print_digests) {
            for (const char* name : {"matrix_fixed", "leak_sweep_shards"})
                for (const bool tiny : {false, true}) {
                    const auto w = make_workload(name, kDefaultSeed, tiny);
                    std::printf("%s %s 0x%016llxull\n", name, tiny ? "tiny" : "full",
                                static_cast<unsigned long long>(
                                    util::fnv1a64(reference_json(w->spec))));
                }
            return 0;
        }
        const auto w = make_workload(opt.workload, opt.seed, opt.tiny);
        if (!w.has_value()) return usage(argv[0]);
        if (opt.setup_probes > 0) {
            for (unsigned i = 0; i < opt.setup_probes; ++i)
                std::printf("%.9g\n", probe_setup(*w).total_s);
            return 0;
        }
        std::filesystem::create_directories(opt.work_dir);
        return opt.trace ? run_traced(*w, opt) : run_untraced(*w, opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_campaign: %s\n", e.what());
        return 1;
    }
}
