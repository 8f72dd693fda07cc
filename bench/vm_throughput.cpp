// VM and trial-pool throughput — the perf counters behind the campaign
// engine's wall-clock.
//
// Four measurements, emitted human-readable and as machine-readable JSON
// (BENCH_vm.json) so perf regressions are visible PR-over-PR:
//   * steps/sec      — raw interpreter speed on a compute+stack-traffic
//                      loop, A/B'd across the two dispatch engines:
//                      direct-threaded (decoded-op stream, fused
//                      superinstructions, batched accounting) vs the
//                      legacy per-instruction switch stepper;
//   * trials/sec     — end-to-end "boot a fork server, serve one request"
//                      trials, fresh-boot vs pool-reused masters;
//   * amortization   — pooled / fresh trials-per-sec ratio, i.e. how much
//                      of a trial's cost the snapshot-reuse pool recovers;
//   * crash path     — µs per served request on a pooled nginx master,
//                      benign requests vs canary-smashing ones (the crash
//                      oracle's common case: almost every brute-force or
//                      byte-by-byte guess kills the worker).
// Every A/B runs as interleaved window pairs (which side runs first
// alternates) and reports medians and IQRs; each gate reads the median
// over pairs of the per-pair figure, so host drift between pairs cancels
// within a pair and a burst that hits one window is outvoted.
// The fresh and pooled oracles are byte-identical per seed (the pool
// contract); this bench additionally cross-checks the served outputs.
// The two dispatch engines are byte-identical too (pinned by ctest);
// here they only differ in wall-clock.
//
//   bench_vm_throughput [--steps N] [--dispatch both|threaded|switch]
//                       [--boot-trials N] [--seed S] [--json PATH|-]
//                       [--min-ratio R] [--min-steps-ratio R]
//                       [--max-crash-ratio R]
//                       [--profile] [--max-obs-overhead P]
//
// --min-ratio R exits nonzero if any scheme's median amortization ratio
// (15 interleaved fresh/pooled window pairs) falls below R — the CI smoke
// uses it to pin the >= 3x acceptance floor.
// --min-steps-ratio R exits nonzero if threaded dispatch delivers fewer
// than R times the switch stepper's steps/sec, median of 15 interleaved
// window pairs (CI floor: 1.5x).
// --max-crash-ratio R exits nonzero if, for any scheme, a canary-smashing
// request costs more than R times a benign one (median over 61
// interleaved windows of 1000 requests). A smash aborts before the
// response loop, so it should cost no more than a benign request (CI
// bound: 1.0).
//
// --profile attaches a vm::exec_profile to the spinner and prints the
// per-handler heat table (hits, cycles, cycle share — superinstructions
// included), plus the proc-layer obs counters the boot trials generated
// (pool boots/reuses, fork/reboot dirty pages).
//
// --max-obs-overhead P is the telemetry idle-cost gate: it A/Bs threaded
// steps/sec with tracing off vs globally enabled (61 interleaved off/on
// window pairs after a warm-up; the VM hot loop carries no span sites, so
// "enabled" must cost nothing there) and exits nonzero if the median
// pair's regression exceeds P percent. That median, each side's median
// steps/sec and their IQRs land in BENCH_vm.json's "obs" block either way.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "binfmt/image.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "vm/machine.hpp"
#include "workload/victim.hpp"

namespace {

using namespace pssp;
using clock_type = std::chrono::steady_clock;

double seconds_since(clock_type::time_point start) {
    return std::chrono::duration<double>(clock_type::now() - start).count();
}

// A busy loop mixing ALU, stack traffic, loads/stores, calls and branches —
// roughly the instruction diet of a protected request handler.
vm::machine make_spinner(std::uint64_t iterations) {
    using namespace vm::isa;
    using vm::reg;

    binfmt::image img;
    const auto leaf_sym = img.sym("leaf");

    auto& leaf = img.add_function("leaf");
    leaf.emit(add_ri(reg::rax, 3));
    leaf.emit(ret());

    auto& spin = img.add_function("spin");
    const auto loop = spin.new_label();
    spin.emit(push_r(reg::rbp));
    spin.emit(mov_rr(reg::rbp, reg::rsp));
    spin.emit(sub_ri(reg::rsp, 64));
    spin.emit(mov_ri(reg::rax, 0));
    spin.place(loop);
    spin.emit(mov_mr(mem(reg::rsp, 8), reg::rax));
    spin.emit(xor_ri(reg::rax, 0x5a5a));
    spin.emit(mov_rm(reg::rcx, mem(reg::rsp, 8)));
    spin.emit(add_rr(reg::rax, reg::rcx));
    spin.emit(call_sym(leaf_sym));
    spin.emit(sub_ri(reg::rdi, 1));
    spin.emit(cmp_ri(reg::rdi, 0));
    spin.emit(jne(loop));
    spin.emit(leave());
    spin.emit(ret());

    const auto binary = img.link(binfmt::link_mode::dynamic_glibc);
    vm::machine m{binary.make_program(), vm::memory::layout{}, /*entropy_seed=*/1};
    m.call_function(binary.symbols.at("spin"));
    m.set(reg::rdi, iterations);
    return m;
}

// Median and interquartile range of a set of window figures.
struct spread {
    double median = 0.0;
    double iqr = 0.0;
};

spread summarize(const std::vector<double>& xs) {
    return {util::quantile(xs, 0.5),
            util::quantile(xs, 0.75) - util::quantile(xs, 0.25)};
}

// Per-pair ratios b[i] / a[i] of two sides' window figures.
std::vector<double> pair_ratios(const std::vector<double>& a,
                                const std::vector<double>& b) {
    std::vector<double> out;
    for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
        out.push_back(b[i] / a[i]);
    return out;
}

// Runs `pairs` interleaved A/B window pairs: window(false) is side A,
// window(true) side B, and which side runs first alternates by pair.
template <class Window>
void interleave(int pairs, Window&& window) {
    for (int i = 0; i < pairs; ++i)
        for (const bool side_b : {i % 2 == 1, i % 2 == 0}) window(side_b);
}

// Window pairs behind the dispatch and boot-amortization gates, and the
// crash-path A/B's pairs and requests per window.
constexpr int ab_pairs = 15;
constexpr int crash_pairs = 61;
constexpr int crash_window_requests = 1000;

// Steps/sec of one dispatch engine on the spinner diet. A fresh machine
// per window: the measurement is cold-state fair and two windows cannot
// share sticky results.
double measure_steps_per_sec(vm::dispatch_mode mode, std::uint64_t steps) {
    auto spinner = make_spinner(steps / 9 + 1);
    spinner.set_dispatch(mode);
    spinner.set_fuel(steps);
    const auto start = clock_type::now();
    (void)spinner.run();
    const double secs = seconds_since(start);
    return static_cast<double>(spinner.steps()) / secs;
}

// The dispatch A/B: after a warm-up window, `pairs` interleaved
// switch/threaded window pairs (or `pairs` windows of the one engine
// asked for). The gated figure is the median of the per-pair ratios.
struct dispatch_ab {
    int pairs = 0;
    spread threaded;     // steps/sec
    spread switch_loop;  // steps/sec
    spread ratio;        // threaded / switch, per pair
};

dispatch_ab measure_dispatch(std::uint64_t steps, int pairs, bool want_threaded,
                             bool want_switch) {
    (void)measure_steps_per_sec(want_threaded ? vm::dispatch_mode::threaded
                                              : vm::dispatch_mode::switch_loop,
                                steps);  // warm-up
    std::vector<double> threaded;
    std::vector<double> stepper;
    interleave(pairs, [&](bool is_threaded) {
        if (!(is_threaded ? want_threaded : want_switch)) return;
        (is_threaded ? threaded : stepper)
            .push_back(measure_steps_per_sec(is_threaded
                                                 ? vm::dispatch_mode::threaded
                                                 : vm::dispatch_mode::switch_loop,
                                             steps));
    });
    dispatch_ab ab;
    ab.pairs = pairs;
    ab.threaded = summarize(threaded);
    ab.switch_loop = summarize(stepper);
    if (want_threaded && want_switch) ab.ratio = summarize(pair_ratios(stepper, threaded));
    return ab;
}

// The telemetry idle-cost A/B: after one warm-up window, `pairs`
// interleaved tracing-off/on window pairs of the threaded spinner. The two
// sides run near-identical code, so the comparison must beat host noise:
// the gated figure is the median over pairs of each pair's overhead.
struct obs_ab {
    int pairs = 0;
    spread off;       // steps/sec, tracing off
    spread on;        // steps/sec, tracing on
    spread overhead;  // percent, per pair
};

obs_ab measure_obs_overhead(std::uint64_t steps, int pairs) {
    (void)measure_steps_per_sec(vm::dispatch_mode::threaded, steps);  // warm-up
    std::vector<double> off;
    std::vector<double> on;
    interleave(pairs, [&](bool tracing) {
        obs::enable_tracing(tracing);
        (tracing ? on : off)
            .push_back(measure_steps_per_sec(vm::dispatch_mode::threaded, steps));
    });
    obs::enable_tracing(false);
    std::vector<double> overhead;
    for (std::size_t i = 0; i < off.size(); ++i)
        overhead.push_back(100.0 * (off[i] - on[i]) / off[i]);
    return {pairs, summarize(off), summarize(on), summarize(overhead)};
}

// Runs the spinner once with a vm::exec_profile attached and prints the
// per-handler heat table — which handlers (fused superinstructions
// included) the diet actually hits, and where the simulated cycles go.
void print_profile(std::uint64_t steps) {
    auto profile = std::make_shared<vm::exec_profile>();
    auto spinner = make_spinner(steps / 9 + 1);
    spinner.set_dispatch(vm::dispatch_mode::threaded);
    spinner.set_profile(profile);
    spinner.set_fuel(steps);
    (void)spinner.run();

    std::uint64_t total_hits = 0;
    std::uint64_t total_cycles = 0;
    std::vector<std::uint16_t> order;
    for (std::uint16_t h = 0; h < vm::hop::count; ++h) {
        if (profile->hits[h] == 0) continue;
        order.push_back(h);
        total_hits += profile->hits[h];
        total_cycles += profile->cycles[h];
    }
    std::sort(order.begin(), order.end(), [&](std::uint16_t a, std::uint16_t b) {
        return profile->cycles[a] > profile->cycles[b];
    });
    std::printf("per-handler execution profile (threaded dispatch):\n");
    std::printf("  %-22s %12s %12s %7s\n", "handler", "hits", "cycles", "cyc%");
    for (const auto h : order)
        std::printf("  %-22s %12llu %12llu %6.2f%%\n", vm::handler_name(h),
                    static_cast<unsigned long long>(profile->hits[h]),
                    static_cast<unsigned long long>(profile->cycles[h]),
                    100.0 * static_cast<double>(profile->cycles[h]) /
                        static_cast<double>(std::max<std::uint64_t>(
                            total_cycles, 1)));
    std::printf("  %-22s %12llu %12llu\n\n", "(total)",
                static_cast<unsigned long long>(total_hits),
                static_cast<unsigned long long>(total_cycles));
}

// The proc-layer counters the boot trials above just generated — the
// pool/reboot/dirty-page view of the same work.
void print_proc_metrics() {
#if PSSP_OBS
    std::printf("proc-layer obs counters (this process):\n");
    for (const auto& m : obs::snapshot()) {
        if (m.name.rfind("proc.", 0) != 0) continue;
        if (m.type == obs::metric_type::histogram)
            std::printf("  %-28s count %8llu  sum %10llu  mean %10.1f\n",
                        m.name.c_str(),
                        static_cast<unsigned long long>(m.count),
                        static_cast<unsigned long long>(m.sum),
                        m.count != 0 ? static_cast<double>(m.sum) /
                                           static_cast<double>(m.count)
                                     : 0.0);
        else
            std::printf("  %-28s %llu\n", m.name.c_str(),
                        static_cast<unsigned long long>(m.value));
    }
    std::printf("\n");
#else
    std::printf("proc-layer obs counters unavailable (built with PSSP_OBS=0)\n\n");
#endif
}

struct pool_sample {
    std::string scheme;
    spread fresh;   // trials/sec
    spread pooled;  // trials/sec
    spread ratio;   // pooled / fresh, per pair
};

// `pairs` interleaved fresh/pooled windows of `trials` trials each.
pool_sample measure_pool(core::scheme_kind kind, std::uint64_t trials,
                         std::uint64_t seed, int pairs) {
    const auto victim = workload::make_victim(workload::target_kind::nginx, kind);
    const std::string request = "GET /index HTTP/1.0";

    // Warm the pool (first acquire pays the one construction boot), so
    // the pooled windows measure steady-state reuse.
    { auto warm = victim.lease_server(seed); }
    std::string fresh_output;
    std::string pooled_output;
    std::vector<double> fresh;
    std::vector<double> pooled;
    interleave(pairs, [&](bool use_pool) {
        const auto start = clock_type::now();
        for (std::uint64_t t = 0; t < trials; ++t) {
            if (use_pool) {
                auto lease = victim.lease_server(seed + t);
                pooled_output = lease->serve(request).output;
            } else {
                auto server = victim.make_server(seed + t);
                fresh_output = server.serve(request).output;
            }
        }
        (use_pool ? pooled : fresh)
            .push_back(static_cast<double>(trials) / seconds_since(start));
    });

    pool_sample sample;
    sample.scheme = core::to_string(kind);
    if (pooled_output != fresh_output) {
        std::fprintf(stderr,
                     "FATAL: pooled and fresh servers diverged under %s\n",
                     sample.scheme.c_str());
        std::exit(1);
    }
    sample.fresh = summarize(fresh);
    sample.pooled = summarize(pooled);
    sample.ratio = summarize(pair_ratios(fresh, pooled));
    return sample;
}

struct crash_sample {
    std::string scheme;
    spread benign_us;  // µs per request
    spread smash_us;   // µs per request
    spread ratio;      // smash / benign, per pair
};

// The crash oracle's cost: one pooled nginx master serves interleaved
// windows of benign requests and of canary-smashing overflows (the worker
// dies at __stack_chk_fail, the master re-forks). Every served outcome is
// checked, so a window cannot time the wrong path.
crash_sample measure_crash_path(core::scheme_kind kind, std::uint64_t seed,
                                int pairs, int requests) {
    const auto victim = workload::make_victim(workload::target_kind::nginx, kind);
    const std::string benign = "GET /index HTTP/1.0";
    const std::string smash(victim.prefix_bytes + victim.canary_bytes + 8, 'A');
    auto lease = victim.lease_server(seed);
    crash_sample sample;
    sample.scheme = core::to_string(kind);

    const auto window = [&](bool smashing) {
        const std::string& request = smashing ? smash : benign;
        const auto expected = smashing ? proc::worker_outcome::crashed_canary
                                       : proc::worker_outcome::ok;
        const auto start = clock_type::now();
        for (int r = 0; r < requests; ++r) {
            if (lease->serve(request).outcome != expected) {
                std::fprintf(stderr, "FATAL: %s %s request did not give %s\n",
                             sample.scheme.c_str(), smashing ? "smashing" : "benign",
                             proc::to_string(expected).c_str());
                std::exit(1);
            }
        }
        return 1e6 * seconds_since(start) / requests;
    };
    (void)window(false);  // warm-up: first serve clones the worker
    (void)window(true);
    std::vector<double> benign_us;
    std::vector<double> smash_us;
    interleave(pairs, [&](bool smashing) {
        (smashing ? smash_us : benign_us).push_back(window(smashing));
    });
    sample.benign_us = summarize(benign_us);
    sample.smash_us = summarize(smash_us);
    sample.ratio = summarize(pair_ratios(benign_us, smash_us));
    return sample;
}

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--steps N] [--dispatch both|threaded|switch]\n"
                 "          [--boot-trials N] [--seed S]\n"
                 "          [--json PATH|-] [--min-ratio R] [--min-steps-ratio R]\n"
                 "          [--max-crash-ratio R]\n"
                 "  --steps N        interpreter steps per timing window\n"
                 "                   (default 4000000)\n"
                 "  --dispatch M     measure one dispatch engine or A/B both\n"
                 "                   (default both)\n"
                 "  --boot-trials N  boot+serve trials per scheme, mode and\n"
                 "                   window (default 300)\n"
                 "  --seed S         base seed (default 2018)\n"
                 "  --json PATH      write BENCH_vm.json ('-' = stdout)\n"
                 "  --min-ratio R    fail if any median boot-amortization\n"
                 "                   ratio < R (15 interleaved window pairs)\n"
                 "  --min-steps-ratio R  fail if threaded steps/sec < R x the\n"
                 "                   switch stepper's, median of 15\n"
                 "                   interleaved window pairs (needs\n"
                 "                   --dispatch both)\n"
                 "  --max-crash-ratio R  fail if a canary-smashing request\n"
                 "                   costs more than R x a benign one on a\n"
                 "                   pooled nginx master (median of 61\n"
                 "                   interleaved window pairs)\n"
                 "  --profile        per-handler hit/cycle heat table (incl.\n"
                 "                   superinstructions) + proc obs counters\n"
                 "  --max-obs-overhead P  fail if enabling telemetry costs the\n"
                 "                   threaded interpreter more than P%% in\n"
                 "                   steps/sec (median of 61 interleaved A/B\n"
                 "                   window pairs; idle gate)\n",
                 argv0);
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t steps = 4'000'000;
    std::uint64_t boot_trials = 300;
    std::uint64_t seed = 2018;
    const char* json_path = nullptr;
    double min_ratio = 0.0;
    double min_steps_ratio = 0.0;
    double max_obs_overhead = -1.0;
    double max_crash_ratio = 0.0;
    bool profile = false;
    const char* dispatch_arg = "both";

    for (int i = 1; i < argc; ++i) {
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        if (!std::strcmp(argv[i], "--steps")) {
            steps = std::strtoull(next_value("--steps"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--boot-trials")) {
            boot_trials = std::strtoull(next_value("--boot-trials"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--seed")) {
            seed = std::strtoull(next_value("--seed"), nullptr, 10);
        } else if (!std::strcmp(argv[i], "--json")) {
            json_path = next_value("--json");
        } else if (!std::strcmp(argv[i], "--min-ratio")) {
            min_ratio = std::strtod(next_value("--min-ratio"), nullptr);
        } else if (!std::strcmp(argv[i], "--min-steps-ratio")) {
            min_steps_ratio = std::strtod(next_value("--min-steps-ratio"), nullptr);
        } else if (!std::strcmp(argv[i], "--dispatch")) {
            dispatch_arg = next_value("--dispatch");
        } else if (!std::strcmp(argv[i], "--profile")) {
            profile = true;
        } else if (!std::strcmp(argv[i], "--max-crash-ratio")) {
            max_crash_ratio = std::strtod(next_value("--max-crash-ratio"), nullptr);
        } else if (!std::strcmp(argv[i], "--max-obs-overhead")) {
            max_obs_overhead =
                std::strtod(next_value("--max-obs-overhead"), nullptr);
        } else {
            usage(argv[0]);
            return 2;
        }
    }

    bench::print_header("VM / trial-pool throughput",
                        "simulator performance engineering (no paper figure; "
                        "feeds every campaign-scale measurement)");

    // ---- interpreter steps/sec, per dispatch engine ----
    const bool want_threaded = !std::strcmp(dispatch_arg, "both") ||
                               !std::strcmp(dispatch_arg, "threaded");
    const bool want_switch = !std::strcmp(dispatch_arg, "both") ||
                             !std::strcmp(dispatch_arg, "switch");
    if (!want_threaded && !want_switch) {
        std::fprintf(stderr, "--dispatch must be both, threaded or switch\n");
        return 2;
    }
    if (min_steps_ratio > 0.0 && !(want_threaded && want_switch)) {
        std::fprintf(stderr, "--min-steps-ratio needs --dispatch both\n");
        return 2;
    }
    const bool both_engines = want_threaded && want_switch;
    const auto dispatch = measure_dispatch(steps, ab_pairs, want_threaded, want_switch);
    if (want_switch)
        std::printf("interpreter (switch):   %.2fM steps/sec (median of %d "
                    "windows, IQR %.2fM)\n",
                    dispatch.switch_loop.median / 1e6, dispatch.pairs,
                    dispatch.switch_loop.iqr / 1e6);
    if (want_threaded)
        std::printf("interpreter (threaded): %.2fM steps/sec (median of %d "
                    "windows, IQR %.2fM)\n",
                    dispatch.threaded.median / 1e6, dispatch.pairs,
                    dispatch.threaded.iqr / 1e6);
    const double steps_per_sec =
        want_threaded ? dispatch.threaded.median : dispatch.switch_loop.median;
    if (both_engines)
        std::printf("threaded/switch dispatch speedup: %.2fx (median of %d "
                    "interleaved window pairs, IQR %.2f)\n",
                    dispatch.ratio.median, dispatch.pairs, dispatch.ratio.iqr);
    std::printf("\n");

    // ---- telemetry idle cost: tracing off vs globally enabled ----
    // The VM hot loop has no span or counter sites, so flipping the global
    // tracing switch must not move steps/sec. Measured whenever the gate
    // or the JSON is requested; gate applied at the end.
    obs_ab obs_cost;
    if (max_obs_overhead >= 0.0 || json_path != nullptr) {
        obs_cost = measure_obs_overhead(steps, 61);
        std::printf("telemetry idle overhead: %.2f%% (median of %d interleaved "
                    "off/on window pairs, IQR %.2f points; tracing off %.2fM, "
                    "IQR %.2fM; tracing on %.2fM, IQR %.2fM steps/sec)\n\n",
                    obs_cost.overhead.median, obs_cost.pairs, obs_cost.overhead.iqr,
                    obs_cost.off.median / 1e6, obs_cost.off.iqr / 1e6,
                    obs_cost.on.median / 1e6, obs_cost.on.iqr / 1e6);
    }

    if (profile) print_profile(steps);

    // ---- boot amortization, fresh vs pooled ----
    std::vector<pool_sample> samples;
    for (const auto kind : {core::scheme_kind::ssp, core::scheme_kind::p_ssp}) {
        const auto s = measure_pool(kind, boot_trials, seed, ab_pairs);
        std::printf("%-10s fresh %8.0f trials/sec | pooled %8.0f trials/sec "
                    "| amortization %.2fx (IQR %.2f)\n",
                    s.scheme.c_str(), s.fresh.median, s.pooled.median,
                    s.ratio.median, s.ratio.iqr);
        samples.push_back(s);
    }
    std::printf(
        "\n(one trial = boot a fork server + serve one request; pooled mode\n"
        " reuses a parked master via snapshot restore + seed re-derivation;\n"
        " medians of %d interleaved fresh/pooled window pairs)\n\n",
        ab_pairs);

    // ---- crash path: benign vs canary-smashing serves ----
    std::vector<crash_sample> crashes;
    for (const auto kind : {core::scheme_kind::ssp, core::scheme_kind::p_ssp}) {
        const auto c = measure_crash_path(kind, seed, crash_pairs, crash_window_requests);
        std::printf("%-10s benign %6.2f us/request | canary smash %6.2f "
                    "us/request | crash/benign %.2fx (IQR %.2f)\n",
                    c.scheme.c_str(), c.benign_us.median, c.smash_us.median,
                    c.ratio.median, c.ratio.iqr);
        crashes.push_back(c);
    }
    std::printf("\n(pooled nginx master; medians of %d interleaved benign/smash "
                "windows of %d requests)\n",
                crash_pairs, crash_window_requests);
    if (profile) {
        std::printf("\n");
        print_proc_metrics();
    }

    std::ostringstream json;
    json << "{\n  \"bench\": \"vm_throughput\",\n";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  \"steps\": %llu,\n  \"steps_per_sec\": %.0f,\n",
                  static_cast<unsigned long long>(steps), steps_per_sec);
    json << buf;
    if (both_engines) {
        std::snprintf(buf, sizeof buf,
                      "  \"dispatch\": {\"window_pairs\": %d, "
                      "\"threaded_steps_per_sec\": %.0f, \"threaded_iqr\": %.0f, "
                      "\"switch_steps_per_sec\": %.0f, \"switch_iqr\": %.0f, "
                      "\"threaded_over_switch\": %.3f, "
                      "\"threaded_over_switch_iqr\": %.3f},\n",
                      dispatch.pairs, dispatch.threaded.median, dispatch.threaded.iqr,
                      dispatch.switch_loop.median, dispatch.switch_loop.iqr,
                      dispatch.ratio.median, dispatch.ratio.iqr);
        json << buf;
    }
    if (obs_cost.pairs > 0) {
        std::snprintf(buf, sizeof buf,
                      "  \"obs\": {\"window_pairs\": %d, \"idle_steps_per_sec\": %.0f, "
                      "\"idle_iqr\": %.0f, \"traced_steps_per_sec\": %.0f, "
                      "\"traced_iqr\": %.0f, \"idle_overhead_percent\": %.2f, "
                      "\"idle_overhead_iqr\": %.2f},\n",
                      obs_cost.pairs, obs_cost.off.median, obs_cost.off.iqr,
                      obs_cost.on.median, obs_cost.on.iqr, obs_cost.overhead.median,
                      obs_cost.overhead.iqr);
        json << buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  \"boot_trials\": %llu,\n  \"window_pairs\": %d,\n"
                  "  \"cells\": [\n",
                  static_cast<unsigned long long>(boot_trials), ab_pairs);
    json << buf;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto& s = samples[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"scheme\": \"%s\", \"fresh_trials_per_sec\": %.1f, "
                      "\"fresh_iqr\": %.1f, \"pooled_trials_per_sec\": %.1f, "
                      "\"pooled_iqr\": %.1f, \"boot_amortization_ratio\": %.3f, "
                      "\"boot_amortization_iqr\": %.3f}%s\n",
                      s.scheme.c_str(), s.fresh.median, s.fresh.iqr, s.pooled.median,
                      s.pooled.iqr, s.ratio.median, s.ratio.iqr,
                      i + 1 < samples.size() ? "," : "");
        json << buf;
    }
    std::snprintf(buf, sizeof buf,
                  "  ],\n  \"crash_path\": {\"window_pairs\": %d, "
                  "\"requests_per_window\": %d, \"cells\": [\n",
                  crash_pairs, crash_window_requests);
    json << buf;
    for (std::size_t i = 0; i < crashes.size(); ++i) {
        const auto& c = crashes[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"scheme\": \"%s\", \"benign_us_per_request\": %.3f, "
                      "\"benign_iqr\": %.3f, \"crash_us_per_request\": %.3f, "
                      "\"crash_iqr\": %.3f, \"crash_over_benign\": %.3f, "
                      "\"crash_over_benign_iqr\": %.3f}%s\n",
                      c.scheme.c_str(), c.benign_us.median, c.benign_us.iqr,
                      c.smash_us.median, c.smash_us.iqr, c.ratio.median, c.ratio.iqr,
                      i + 1 < crashes.size() ? "," : "");
        json << buf;
    }
    json << "  ]}\n}\n";

    if (json_path != nullptr) {
        if (!std::strcmp(json_path, "-")) {
            std::printf("%s", json.str().c_str());
        } else {
            std::ofstream out{json_path, std::ios::binary};
            if (!out) {
                std::fprintf(stderr, "cannot write %s\n", json_path);
                return 1;
            }
            out << json.str();
        }
    }

    if (max_obs_overhead >= 0.0 && obs_cost.overhead.median > max_obs_overhead) {
        std::fprintf(stderr,
                     "FAIL: telemetry idle overhead %.2f%% > allowed %.2f%%\n",
                     obs_cost.overhead.median, max_obs_overhead);
        return 1;
    }
    if (min_steps_ratio > 0.0 && dispatch.ratio.median < min_steps_ratio) {
        std::fprintf(stderr,
                     "FAIL: threaded dispatch %.2fx over switch < required %.2fx\n",
                     dispatch.ratio.median, min_steps_ratio);
        return 1;
    }
    if (min_ratio > 0.0) {
        for (const auto& s : samples) {
            if (s.ratio.median < min_ratio) {
                std::fprintf(stderr,
                             "FAIL: %s boot-amortization %.2fx < required %.2fx\n",
                             s.scheme.c_str(), s.ratio.median, min_ratio);
                return 1;
            }
        }
    }
    if (max_crash_ratio > 0.0) {
        for (const auto& c : crashes) {
            if (c.ratio.median > max_crash_ratio) {
                std::fprintf(stderr,
                             "FAIL: %s canary-smash request costs %.2fx a benign "
                             "one > allowed %.2fx\n",
                             c.scheme.c_str(), c.ratio.median, max_crash_ratio);
                return 1;
            }
        }
    }
    return 0;
}
