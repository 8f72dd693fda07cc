// VM and trial-pool throughput — the perf counters behind the campaign
// engine's wall-clock.
//
// Three measurements, emitted human-readable and as machine-readable JSON
// (BENCH_vm.json) so perf regressions are visible PR-over-PR:
//   * steps/sec      — raw interpreter speed on a compute+stack-traffic
//                      loop, A/B'd across the two dispatch engines:
//                      direct-threaded (decoded-op stream, fused
//                      superinstructions, batched accounting) vs the
//                      legacy per-instruction switch stepper;
//   * trials/sec     — end-to-end "boot a fork server, serve one request"
//                      trials, fresh-boot vs pool-reused masters;
//   * amortization   — pooled / fresh trials-per-sec ratio, i.e. how much
//                      of a trial's cost the snapshot-reuse pool recovers.
// The fresh and pooled oracles are byte-identical per seed (the pool
// contract); this bench additionally cross-checks the served outputs.
// The two dispatch engines are byte-identical too (pinned by ctest);
// here they only differ in wall-clock.
//
//   bench_vm_throughput [--steps N] [--dispatch both|threaded|switch]
//                       [--boot-trials N] [--seed S] [--json PATH|-]
//                       [--min-ratio R] [--min-steps-ratio R]
//                       [--profile] [--max-obs-overhead P]
//
// --min-ratio R exits nonzero if any scheme's amortization ratio falls
// below R — the CI smoke uses it to pin the >= 3x acceptance floor.
// --min-steps-ratio R exits nonzero if threaded dispatch delivers fewer
// than R times the switch stepper's steps/sec (CI floor: 1.5x).
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

// Steps/sec of one dispatch engine on the spinner diet. A fresh machine
// per mode: the measurement is cold-state fair and the two runs cannot
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

// The telemetry idle-cost A/B: after one warm-up window, `pairs`
// interleaved tracing-off/on window pairs of the threaded spinner. The two
// sides run near-identical code, so the comparison must beat host noise:
// the gated figure is the median over pairs of each pair's overhead, so a
// host that drifts between pairs cancels within each pair and a burst that
// hits one window is outvoted. Each side's median and IQR are reported too.
struct obs_ab {
    int pairs = 0;
    double off_median = 0.0;
    double on_median = 0.0;
    double off_iqr = 0.0;
    double on_iqr = 0.0;
    double overhead_percent = 0.0;  // median over pairs
    double overhead_iqr = 0.0;
};

obs_ab measure_obs_overhead(std::uint64_t steps, int pairs) {
    (void)measure_steps_per_sec(vm::dispatch_mode::threaded, steps);  // warm-up
    std::vector<double> off;
    std::vector<double> on;
    for (int i = 0; i < pairs; ++i) {
        // Alternate which side of a pair runs first.
        for (const bool tracing : {i % 2 == 1, i % 2 == 0}) {
            obs::enable_tracing(tracing);
            (tracing ? on : off)
                .push_back(measure_steps_per_sec(vm::dispatch_mode::threaded, steps));
        }
    }
    obs::enable_tracing(false);
    std::vector<double> overhead;
    for (std::size_t i = 0; i < off.size(); ++i)
        overhead.push_back(100.0 * (off[i] - on[i]) / off[i]);
    const auto iqr = [](const std::vector<double>& xs) {
        return util::quantile(xs, 0.75) - util::quantile(xs, 0.25);
    };
    obs_ab ab;
    ab.pairs = pairs;
    ab.off_median = util::quantile(off, 0.5);
    ab.on_median = util::quantile(on, 0.5);
    ab.off_iqr = iqr(off);
    ab.on_iqr = iqr(on);
    ab.overhead_percent = util::quantile(overhead, 0.5);
    ab.overhead_iqr = iqr(overhead);
    return ab;
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
    double fresh_trials_per_sec = 0.0;
    double pooled_trials_per_sec = 0.0;
    double ratio = 0.0;
};

pool_sample measure_pool(core::scheme_kind kind, std::uint64_t trials,
                         std::uint64_t seed) {
    const auto victim = workload::make_victim(workload::target_kind::nginx, kind);
    const std::string request = "GET /index HTTP/1.0";
    pool_sample sample;
    sample.scheme = core::to_string(kind);

    std::string fresh_output;
    const auto fresh_start = clock_type::now();
    for (std::uint64_t t = 0; t < trials; ++t) {
        auto server = victim.make_server(seed + t);
        fresh_output = server.serve(request).output;
    }
    const double fresh_secs = seconds_since(fresh_start);

    // Warm the pool (first acquire pays the one construction boot), then
    // measure steady-state reuse.
    { auto warm = victim.lease_server(seed); }
    std::string pooled_output;
    const auto pooled_start = clock_type::now();
    for (std::uint64_t t = 0; t < trials; ++t) {
        auto lease = victim.lease_server(seed + t);
        pooled_output = lease->serve(request).output;
    }
    const double pooled_secs = seconds_since(pooled_start);

    if (pooled_output != fresh_output) {
        std::fprintf(stderr,
                     "FATAL: pooled and fresh servers diverged under %s\n",
                     sample.scheme.c_str());
        std::exit(1);
    }

    sample.fresh_trials_per_sec = static_cast<double>(trials) / fresh_secs;
    sample.pooled_trials_per_sec = static_cast<double>(trials) / pooled_secs;
    sample.ratio = sample.pooled_trials_per_sec / sample.fresh_trials_per_sec;
    return sample;
}

void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--steps N] [--dispatch both|threaded|switch]\n"
                 "          [--boot-trials N] [--seed S]\n"
                 "          [--json PATH|-] [--min-ratio R] [--min-steps-ratio R]\n"
                 "  --steps N        interpreter steps to time (default 4000000)\n"
                 "  --dispatch M     measure one dispatch engine or A/B both\n"
                 "                   (default both)\n"
                 "  --boot-trials N  boot+serve trials per scheme and mode\n"
                 "                   (default 300)\n"
                 "  --seed S         base seed (default 2018)\n"
                 "  --json PATH      write BENCH_vm.json ('-' = stdout)\n"
                 "  --min-ratio R    fail if any boot-amortization ratio < R\n"
                 "  --min-steps-ratio R  fail if threaded steps/sec < R x the\n"
                 "                   switch stepper's (needs --dispatch both)\n"
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
    double threaded_steps_per_sec = 0.0;
    double switch_steps_per_sec = 0.0;
    if (want_switch) {
        switch_steps_per_sec =
            measure_steps_per_sec(vm::dispatch_mode::switch_loop, steps);
        std::printf("interpreter (switch):   %.2fM steps/sec\n",
                    switch_steps_per_sec / 1e6);
    }
    if (want_threaded) {
        threaded_steps_per_sec =
            measure_steps_per_sec(vm::dispatch_mode::threaded, steps);
        std::printf("interpreter (threaded): %.2fM steps/sec\n",
                    threaded_steps_per_sec / 1e6);
    }
    const double steps_per_sec =
        want_threaded ? threaded_steps_per_sec : switch_steps_per_sec;
    const double dispatch_ratio =
        (want_threaded && want_switch && switch_steps_per_sec > 0.0)
            ? threaded_steps_per_sec / switch_steps_per_sec
            : 0.0;
    if (dispatch_ratio > 0.0)
        std::printf("threaded/switch dispatch speedup: %.2fx\n", dispatch_ratio);
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
                    obs_cost.overhead_percent, obs_cost.pairs, obs_cost.overhead_iqr,
                    obs_cost.off_median / 1e6, obs_cost.off_iqr / 1e6,
                    obs_cost.on_median / 1e6, obs_cost.on_iqr / 1e6);
    }

    if (profile) print_profile(steps);

    // ---- boot amortization, fresh vs pooled ----
    std::vector<pool_sample> samples;
    for (const auto kind : {core::scheme_kind::ssp, core::scheme_kind::p_ssp}) {
        const auto s = measure_pool(kind, boot_trials, seed);
        std::printf("%-10s fresh %8.0f trials/sec | pooled %8.0f trials/sec "
                    "| amortization %.2fx\n",
                    s.scheme.c_str(), s.fresh_trials_per_sec,
                    s.pooled_trials_per_sec, s.ratio);
        samples.push_back(s);
    }
    std::printf(
        "\n(one trial = boot a fork server + serve one request; pooled mode\n"
        " reuses a parked master via snapshot restore + seed re-derivation)\n");
    if (profile) {
        std::printf("\n");
        print_proc_metrics();
    }

    std::ostringstream json;
    json << "{\n  \"bench\": \"vm_throughput\",\n";
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "  \"steps\": %llu,\n  \"steps_per_sec\": %.0f,\n",
                  static_cast<unsigned long long>(steps), steps_per_sec);
    json << buf;
    if (want_threaded && want_switch) {
        std::snprintf(buf, sizeof buf,
                      "  \"dispatch\": {\"threaded_steps_per_sec\": %.0f, "
                      "\"switch_steps_per_sec\": %.0f, "
                      "\"threaded_over_switch\": %.3f},\n",
                      threaded_steps_per_sec, switch_steps_per_sec,
                      dispatch_ratio);
        json << buf;
    }
    if (obs_cost.pairs > 0) {
        std::snprintf(buf, sizeof buf,
                      "  \"obs\": {\"window_pairs\": %d, \"idle_steps_per_sec\": %.0f, "
                      "\"idle_iqr\": %.0f, \"traced_steps_per_sec\": %.0f, "
                      "\"traced_iqr\": %.0f, \"idle_overhead_percent\": %.2f, "
                      "\"idle_overhead_iqr\": %.2f},\n",
                      obs_cost.pairs, obs_cost.off_median, obs_cost.off_iqr,
                      obs_cost.on_median, obs_cost.on_iqr, obs_cost.overhead_percent,
                      obs_cost.overhead_iqr);
        json << buf;
    }
    std::snprintf(buf, sizeof buf, "  \"boot_trials\": %llu,\n  \"cells\": [\n",
                  static_cast<unsigned long long>(boot_trials));
    json << buf;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const auto& s = samples[i];
        std::snprintf(buf, sizeof buf,
                      "    {\"scheme\": \"%s\", \"fresh_trials_per_sec\": %.1f, "
                      "\"pooled_trials_per_sec\": %.1f, "
                      "\"boot_amortization_ratio\": %.3f}%s\n",
                      s.scheme.c_str(), s.fresh_trials_per_sec,
                      s.pooled_trials_per_sec, s.ratio,
                      i + 1 < samples.size() ? "," : "");
        json << buf;
    }
    json << "  ]\n}\n";

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

    if (max_obs_overhead >= 0.0 && obs_cost.overhead_percent > max_obs_overhead) {
        std::fprintf(stderr,
                     "FAIL: telemetry idle overhead %.2f%% > allowed %.2f%%\n",
                     obs_cost.overhead_percent, max_obs_overhead);
        return 1;
    }
    if (min_steps_ratio > 0.0 && dispatch_ratio < min_steps_ratio) {
        std::fprintf(stderr,
                     "FAIL: threaded dispatch %.2fx over switch < required %.2fx\n",
                     dispatch_ratio, min_steps_ratio);
        return 1;
    }
    if (min_ratio > 0.0) {
        for (const auto& s : samples) {
            if (s.ratio < min_ratio) {
                std::fprintf(stderr,
                             "FAIL: %s boot-amortization %.2fx < required %.2fx\n",
                             s.scheme.c_str(), s.ratio, min_ratio);
                return 1;
            }
        }
    }
    return 0;
}
