// The libpoly_canary analog: per-scheme TLS state at startup, and what each
// scheme's fork/pthread wrapper does (and crucially does NOT do) to the TLS.

#include <gtest/gtest.h>

#include <unordered_set>

#include "compiler/codegen.hpp"
#include "core/canary.hpp"
#include "core/runtime.hpp"
#include "core/tls_layout.hpp"
#include "proc/process.hpp"
#include "test_helpers.hpp"

namespace pssp {
namespace {

using core::scheme_kind;
using core::tls_load;

struct fixture {
    testing::built_program bp;
    explicit fixture(scheme_kind kind)
        : bp{testing::vulnerable_module(), kind, /*seed=*/7} {}
    vm::machine& proc() { return bp.proc0; }
    vm::machine fork() { return bp.manager.fork_child(bp.proc0); }
    vm::machine thread() { return bp.manager.spawn_thread(bp.proc0); }
};

TEST(runtime, setup_installs_tls_canary) {
    for (const auto kind : core::all_scheme_kinds()) {
        if (kind == scheme_kind::none) continue;
        fixture fx{kind};
        EXPECT_NE(tls_load(fx.proc(), core::tls_canary), 0u) << core::to_string(kind);
    }
}

TEST(runtime, p_ssp_shadow_pair_xors_to_c) {
    fixture fx{scheme_kind::p_ssp};
    const auto c = tls_load(fx.proc(), core::tls_canary);
    const auto c0 = tls_load(fx.proc(), core::tls_shadow_c0);
    const auto c1 = tls_load(fx.proc(), core::tls_shadow_c1);
    EXPECT_EQ(c0 ^ c1, c);
}

// The defining P-SSP property: fork refreshes the *shadow*, never C.
TEST(runtime, p_ssp_fork_refreshes_shadow_only) {
    fixture fx{scheme_kind::p_ssp};
    const auto c_before = tls_load(fx.proc(), core::tls_canary);
    const auto c0_before = tls_load(fx.proc(), core::tls_shadow_c0);

    auto child = fx.fork();
    EXPECT_EQ(tls_load(child, core::tls_canary), c_before) << "C must not change";
    EXPECT_NE(tls_load(child, core::tls_shadow_c0), c0_before)
        << "shadow must be re-randomized";
    EXPECT_EQ(tls_load(child, core::tls_shadow_c0) ^
                  tls_load(child, core::tls_shadow_c1),
              c_before)
        << "fresh pair still recombines to C";

    // Parent TLS untouched ("only the child process's TLS is updated").
    EXPECT_EQ(tls_load(fx.proc(), core::tls_shadow_c0), c0_before);
}

TEST(runtime, p_ssp_every_fork_gets_a_distinct_pair) {
    fixture fx{scheme_kind::p_ssp};
    std::unordered_set<std::uint64_t> seen;
    for (int i = 0; i < 64; ++i)
        EXPECT_TRUE(seen.insert(tls_load(fx.fork(), core::tls_shadow_c0)).second);
}

TEST(runtime, ssp_fork_inherits_everything) {
    fixture fx{scheme_kind::ssp};
    const auto c = tls_load(fx.proc(), core::tls_canary);
    auto child = fx.fork();
    EXPECT_EQ(tls_load(child, core::tls_canary), c);  // the BROP precondition
}

TEST(runtime, raf_fork_renews_c_itself) {
    fixture fx{scheme_kind::raf_ssp};
    const auto c = tls_load(fx.proc(), core::tls_canary);
    auto child = fx.fork();
    EXPECT_NE(tls_load(child, core::tls_canary), c);  // and breaks old frames
}

TEST(runtime, p_ssp_nt_fork_touches_nothing) {
    fixture fx{scheme_kind::p_ssp_nt};
    const auto before = fx.proc().mem().tls_bytes();
    std::vector<std::uint8_t> snapshot{before.begin(), before.end()};
    auto child = fx.fork();
    const auto after = child.mem().tls_bytes();
    EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), after.begin()))
        << "P-SSP-NT's whole point: no TLS update on fork";
    EXPECT_FALSE(fx.bp.sch->updates_tls_on_fork());
}

TEST(runtime, pthread_hook_mirrors_fork_for_p_ssp) {
    fixture fx{scheme_kind::p_ssp};
    const auto c = tls_load(fx.proc(), core::tls_canary);
    const auto c0 = tls_load(fx.proc(), core::tls_shadow_c0);
    auto thread = fx.thread();
    EXPECT_EQ(tls_load(thread, core::tls_canary), c);
    EXPECT_NE(tls_load(thread, core::tls_shadow_c0), c0);
}

TEST(runtime, owf_key_lives_in_r12_r13_with_tls_backup) {
    fixture fx{scheme_kind::p_ssp_owf};
    const auto key_lo = fx.proc().get(vm::reg::r13);
    const auto key_hi = fx.proc().get(vm::reg::r12);
    EXPECT_NE(key_lo, 0u);
    EXPECT_EQ(tls_load(fx.proc(), core::tls_owf_key_lo), key_lo);
    EXPECT_EQ(tls_load(fx.proc(), core::tls_owf_key_hi), key_hi);
}

TEST(runtime, owf_thread_restores_key_registers) {
    fixture fx{scheme_kind::p_ssp_owf};
    auto thread = fx.thread();
    // A fresh thread must receive K in its callee-saved registers again.
    EXPECT_EQ(thread.get(vm::reg::r13), fx.proc().get(vm::reg::r13));
    EXPECT_EQ(thread.get(vm::reg::r12), fx.proc().get(vm::reg::r12));
}

TEST(runtime, gb_top_pointer_initialized_and_cloned) {
    fixture fx{scheme_kind::p_ssp_gb};
    const auto top = tls_load(fx.proc(), core::tls_gbuf_top);
    EXPECT_EQ(top, core::gbuf_base(fx.proc()));
    auto child = fx.fork();
    EXPECT_EQ(tls_load(child, core::tls_gbuf_top), top);  // cloned, not reset
}

TEST(runtime, dynaguard_fork_rewrites_recorded_canaries) {
    fixture fx{scheme_kind::dynaguard};
    // Simulate two live frames: record addresses in the CAB and place the
    // old canary value there.
    auto& m = fx.proc();
    const auto c_old = tls_load(m, core::tls_canary);
    const std::uint64_t cab = core::cab_base(m);
    const std::uint64_t slot_a = m.mem().regions().stack_top - 64;
    const std::uint64_t slot_b = m.mem().regions().stack_top - 128;
    m.mem().store64(slot_a, c_old);
    m.mem().store64(slot_b, c_old);
    m.mem().store64(cab, slot_a);
    m.mem().store64(cab + 8, slot_b);
    core::tls_store(m, core::tls_cab_top, cab + 16);

    auto child = fx.fork();
    const auto c_new = tls_load(child, core::tls_canary);
    EXPECT_NE(c_new, c_old);
    EXPECT_EQ(child.mem().load64(slot_a), c_new) << "stale canary not rewritten";
    EXPECT_EQ(child.mem().load64(slot_b), c_new);
    // The parent keeps its canaries (only the child renews).
    EXPECT_EQ(m.mem().load64(slot_a), c_old);
}

TEST(runtime, instrumented_stack_chk_fail_checks_packed_pair) {
    auto binary = compiler::build_module(testing::vulnerable_module(),
                                         core::make_scheme(scheme_kind::p_ssp32));
    core::bind_instrumented_stack_chk_fail(binary);
    proc::process_manager manager{core::make_scheme(scheme_kind::p_ssp32), 3};
    auto m = manager.create_process(binary);

    const auto c = tls_load(m, core::tls_canary);
    crypto::xoshiro256 rng{5};
    const auto good = core::re_randomize32(c, rng);
    m.set(vm::reg::rdi, good.packed());

    const auto handler = binary.natives.at(binary.symbols.at("__stack_chk_fail"));
    handler(m);  // must return normally with ZF set
    EXPECT_TRUE(m.flags().zf);
    EXPECT_EQ(m.pending_trap(), vm::trap_kind::none);

    m.set(vm::reg::rdi, good.packed() ^ 0xff);  // corrupt one byte
    handler(m);  // must raise the abort for the native-call edge
    EXPECT_EQ(m.pending_trap(), vm::trap_kind::stack_smash);
}

}  // namespace
}  // namespace pssp
