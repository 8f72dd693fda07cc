// Native-helper traps: a helper ends the guest with machine::raise_trap(),
// a status the native-call edge of each engine turns into the trapped
// run_result — no exception involved. Pins that both engines stop at the
// same place with the same counters, that the pending trap never outlives
// the edge that consumed it, and that a pooled fork server answers a
// canary smash with crashed_canary and its next benign request with ok.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "binfmt/image.hpp"
#include "compiler/codegen.hpp"
#include "core/runtime.hpp"
#include "proc/master_pool.hpp"
#include "rewriter/rewriter.hpp"
#include "vm/machine.hpp"
#include "workload/victim.hpp"
#include "workload/webserver.hpp"

namespace pssp {
namespace {

using namespace vm::isa;
using core::scheme_kind;
using proc::worker_outcome;
using vm::machine;
using vm::reg;

constexpr std::uint64_t helper_cycles = 37;

// f: a little work, then a call to a native that charges cycles and, when
// rdi is nonzero, raises stack_smash; on return it adds to rax and exits.
struct trap_program {
    std::optional<binfmt::linked_binary> binary;
    std::shared_ptr<const vm::program> prog;
    std::uint64_t call_addr = 0;

    trap_program() {
        binfmt::image img;
        auto& f = img.add_function("f");
        f.emit({mov_ri(reg::rax, 5), add_ri(reg::rax, 2),
                call_sym(img.sym("check")), add_ri(reg::rax, 100), ret()});
        img.add_native_import("check", [](machine& m) {
            m.charge(helper_cycles);
            if (m.get(reg::rdi) != 0) m.raise_trap(vm::trap_kind::stack_smash);
        });
        binary.emplace(img.link(binfmt::link_mode::dynamic_glibc));
        prog = binary->make_program();
        const std::uint64_t entry = binary->symbols.at("f");
        for (std::size_t i = 0; i < prog->insns.size(); ++i)
            if (prog->addrs[i] >= entry && prog->insns[i].op == vm::opcode::call) {
                call_addr = prog->addrs[i];
                break;
            }
    }

    machine boot(vm::dispatch_mode mode, std::uint64_t rdi) const {
        machine m{prog, vm::memory::layout{}, /*entropy_seed=*/1};
        m.set_dispatch(mode);
        m.set_fuel(10'000);
        call(m, rdi);
        return m;
    }

    void call(machine& m, std::uint64_t rdi) const {
        m.call_function(binary->symbols.at("f"));
        m.set(reg::rdi, rdi);
    }
};

void expect_smash_at_call(const trap_program& p, const vm::run_result& r) {
    EXPECT_EQ(r.status, vm::exec_status::trapped);
    EXPECT_EQ(r.trap, vm::trap_kind::stack_smash);
    EXPECT_EQ(r.fault_addr, p.call_addr);
}

TEST(native_trap, engines_stop_identically_with_the_helpers_cycles_kept) {
    const trap_program p;
    ASSERT_NE(p.call_addr, 0u);
    machine threaded = p.boot(vm::dispatch_mode::threaded, 1);
    machine stepper = p.boot(vm::dispatch_mode::switch_loop, 1);
    machine profiled = p.boot(vm::dispatch_mode::threaded, 1);
    profiled.set_profile(std::make_shared<vm::exec_profile>());
    machine benign = p.boot(vm::dispatch_mode::threaded, 0);

    const auto a = threaded.run();
    const auto b = stepper.run();
    const auto c = profiled.run();
    expect_smash_at_call(p, a);
    for (const auto* r : {&b, &c}) {
        EXPECT_EQ(r->status, a.status);
        EXPECT_EQ(r->trap, a.trap);
        EXPECT_EQ(r->exit_code, a.exit_code);
        EXPECT_EQ(r->fault_addr, a.fault_addr);
    }
    for (const machine* m : {&stepper, &profiled}) {
        EXPECT_EQ(m->steps(), threaded.steps());
        EXPECT_EQ(m->cycles(), threaded.cycles());
        EXPECT_EQ(m->current_address(), threaded.current_address());
        EXPECT_EQ(m->get(reg::rsp), threaded.get(reg::rsp));
    }
    EXPECT_EQ(threaded.steps(), 3u);  // mov, add, call; nothing after
    EXPECT_EQ(threaded.current_address(), p.call_addr);
    EXPECT_EQ(threaded.get(reg::rax), 7u);

    // The same three instructions (the call's helper returning normally)
    // charge the same cycles, so the helper's charge is kept on the trap
    // path.
    EXPECT_EQ(benign.run(3).status, vm::exec_status::running);
    EXPECT_EQ(benign.steps(), threaded.steps());
    EXPECT_EQ(benign.cycles(), threaded.cycles());

    // The sticky result repeats; the pending slot is consumed.
    const auto again = threaded.run();
    EXPECT_EQ(again.status, a.status);
    EXPECT_EQ(again.fault_addr, a.fault_addr);
    EXPECT_EQ(threaded.pending_trap(), vm::trap_kind::none);
    EXPECT_EQ(stepper.pending_trap(), vm::trap_kind::none);
}

TEST(native_trap, single_stepping_stops_at_the_call_too) {
    const trap_program p;
    machine threaded = p.boot(vm::dispatch_mode::threaded, 1);
    machine stepper = p.boot(vm::dispatch_mode::switch_loop, 1);
    const auto a = threaded.run();
    vm::run_result b;
    for (int i = 0; i < 10 && b.status == vm::exec_status::running; ++i)
        b = stepper.step();
    EXPECT_EQ(b.status, a.status);
    EXPECT_EQ(b.trap, a.trap);
    EXPECT_EQ(b.fault_addr, a.fault_addr);
    EXPECT_EQ(stepper.steps(), threaded.steps());
    EXPECT_EQ(stepper.cycles(), threaded.cycles());
}

TEST(native_trap, pending_trap_does_not_survive_the_edge) {
    const trap_program p;
    for (const auto mode : {vm::dispatch_mode::threaded, vm::dispatch_mode::switch_loop}) {
        SCOPED_TRACE(vm::to_string(mode));
        machine m = p.boot(mode, 1);
        // A worker cloned at the clean point, as the fork fast path does.
        machine worker{m};
        worker.mem().mark_clean(vm::dirty_channel::fork);
        m.mem().mark_clean(vm::dirty_channel::fork);

        expect_smash_at_call(p, m.run());
        EXPECT_EQ(m.pending_trap(), vm::trap_kind::none);

        worker.sync_from(m);
        EXPECT_EQ(worker.pending_trap(), vm::trap_kind::none);
        p.call(worker, 0);
        const auto w = worker.run();
        EXPECT_EQ(w.status, vm::exec_status::exited);
        EXPECT_EQ(w.exit_code, 107);

        p.call(m, 0);
        const auto r = m.run();
        EXPECT_EQ(r.status, vm::exec_status::exited);
        EXPECT_EQ(r.exit_code, 107);

        // And a trap again after that, from the same machine.
        p.call(m, 1);
        expect_smash_at_call(p, m.run());
    }
}

TEST(native_trap, call_function_drops_a_trap_raised_outside_a_run) {
    const trap_program p;
    machine m = p.boot(vm::dispatch_mode::threaded, 0);
    m.raise_trap(vm::trap_kind::stack_smash);  // as a direct helper call would
    p.call(m, 0);
    EXPECT_EQ(m.pending_trap(), vm::trap_kind::none);
    EXPECT_EQ(m.run().exit_code, 107);
}

// ---- Serve level: pooled fork servers --------------------------------------

void expect_smash_then_ok(proc::fork_server& server, const std::string& smash) {
    for (int round = 0; round < 3; ++round) {
        const auto crashed = server.serve(smash);
        EXPECT_EQ(crashed.outcome, worker_outcome::crashed_canary) << "round " << round;
        EXPECT_EQ(crashed.raw.trap, vm::trap_kind::stack_smash) << "round " << round;
        EXPECT_EQ(server.master().pending_trap(), vm::trap_kind::none);
        EXPECT_EQ(server.serve("GET /index HTTP/1.0").outcome, worker_outcome::ok)
            << "round " << round;
        EXPECT_TRUE(server.alive());
    }
}

TEST(native_trap, pooled_compiler_servers_crash_on_smash_then_serve) {
    for (const auto kind : {scheme_kind::ssp, scheme_kind::p_ssp}) {
        SCOPED_TRACE(core::to_string(kind));
        const auto victim = workload::make_victim(workload::target_kind::nginx, kind);
        const std::string smash(victim.prefix_bytes + victim.canary_bytes + 8, 'A');
        {
            auto lease = victim.lease_server(11);
            expect_smash_then_ok(lease.server(), smash);
        }
        auto reused = victim.lease_server(12);  // rebooted from the pool
        EXPECT_EQ(victim.pool->reuses(), 1u);
        expect_smash_then_ok(reused.server(), smash);
    }
}

// The instrumentation deployment: an SSP build rewritten to P-SSP-32 whose
// __stack_chk_fail is the runtime's split-xor checker, called on every
// return; only a mismatch raises.
TEST(native_trap, pooled_instrumented_pssp32_server_crashes_on_smash_then_serves) {
    const auto profile = workload::nginx_profile();
    auto binary = compiler::build_module(workload::make_server_module(profile),
                                         core::make_scheme(scheme_kind::ssp));
    rewriter::binary_rewriter rw;
    (void)rw.upgrade_to_pssp(binary);
    core::bind_instrumented_stack_chk_fail(binary);
    proc::master_pool pool{std::make_shared<const binfmt::linked_binary>(std::move(binary)),
                           scheme_kind::p_ssp32, {}, workload::server_config_for(profile)};
    const std::string smash(160, 'A');
    {
        auto lease = pool.acquire(21);
        expect_smash_then_ok(lease.server(), smash);
    }
    auto reused = pool.acquire(22);
    EXPECT_EQ(pool.reuses(), 1u);
    expect_smash_then_ok(reused.server(), smash);
}

}  // namespace
}  // namespace pssp
