#include "core/runtime.hpp"

#include <stdexcept>

#include "binfmt/stdlib.hpp"
#include "core/canary.hpp"
#include "core/tls_layout.hpp"

namespace pssp::core {

runtime::runtime(std::shared_ptr<const scheme> sch, std::uint64_t seed)
    : scheme_{std::move(sch)}, rng_{seed} {
    if (!scheme_) throw std::invalid_argument{"runtime requires a scheme"};
}

void runtime::setup_process(vm::machine& m) { scheme_->runtime_setup(m, rng_); }

void runtime::on_fork_child(vm::machine& child) {
    scheme_->runtime_on_fork_child(child, rng_);
}

void runtime::on_thread_create(vm::machine& thread) {
    scheme_->runtime_on_thread_create(thread, rng_);
}

void bind_instrumented_stack_chk_fail(binfmt::linked_binary& binary) {
    binary.bind_native(binfmt::sym_stack_chk_fail, [](vm::machine& m) {
        const std::uint64_t word = m.get(vm::reg::rdi);
        const canary_pair32 pair = unpack32(word);
        const auto c_low = static_cast<std::uint32_t>(tls_load(m, tls_canary));
        // Fig 4's split/xor/compare (~12 ALU ops) plus the penalty of
        // calling into a cold glibc function on *every* return — the cost
        // that separates the instrumented deployment's ~1% from the
        // compiler deployment's ~0.24% in the paper's Figure 5.
        m.charge(25);
        if (pair.combined() == c_low) {
            m.flags().zf = true;  // the epilogue's je falls through to leave/ret
            return;
        }
        // Either a P-SSP frame was smashed, or an SSP-compiled epilogue
        // called in after its own mismatch (in which case rdi fails the
        // split-xor test with overwhelming probability). Both abort.
        m.raise_trap(vm::trap_kind::stack_smash);
    });
}

}  // namespace pssp::core
