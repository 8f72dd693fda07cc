// The interpreter: executes a linked program against a process memory image.
//
// One machine == one simulated thread of one simulated process. The process
// layer (src/proc) implements fork() by copying machines — wholesale for
// the general executor, or by dirty-page sync_from() on the fork-server
// fast path — with the program shared through a shared_ptr and
// registers/memory/flags as deep state. Machines are deliberately
// value-like: tests snapshot them, run divergent continuations, and
// compare outcomes.
//
// Two engines drive the same architectural state (vm/dispatch.hpp):
//   * threaded    — the production hot path. run() walks the program's
//     decoded-op stream with direct-threaded dispatch (computed goto under
//     GCC/Clang, a token-threaded switch elsewhere), fused
//     superinstructions on the hottest adjacent pairs, no per-iteration
//     bounds check (pre-validated targets + a trapping sentinel op), and
//     fuel/max_steps/cycle accounting batched in locals that are
//     reconciled exactly at every exit event (syscall, trap, fuel, pause,
//     and around native calls, which may observe or charge the counters).
//   * switch_loop — the legacy per-instruction switch stepper, kept as the
//     debug and differential-testing mode (public step()) and as the
//     baseline of the dispatch A/B benchmark.
// Jump/call targets come pre-resolved from program::finalize(); only ret,
// and a native helper that rewrote its return address, resolve through
// program::index_of (a hash lookup). Cycle costs come from a flat
// per-opcode table and memory faults surface as trap statuses. A native
// helper ends the guest with raise_trap(), which the native-call edge
// turns into the trapped result; the one exception left on the run path
// is mem_fault from the throwing memory API, which only the string stubs'
// unmapped-range fallbacks raise. Everything outcome-relevant — registers,
// flags, memory, output, cycles_, steps_, rip, trap/fault state — is
// identical across engines at every event boundary; campaign reports are
// byte-identical across dispatch modes.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "crypto/entropy.hpp"
#include "vm/cost_model.hpp"
#include "vm/dispatch.hpp"
#include "vm/memory.hpp"
#include "vm/program.hpp"

namespace pssp::vm {

enum class exec_status : std::uint8_t {
    running,      // paused by the step budget of this run() call
    exited,       // popped the return sentinel or executed sys_exit
    trapped,      // crashed; see trap_kind
    syscalled,    // stopped at a syscall the process layer must service
    out_of_fuel,  // exceeded the cumulative fuel cap (runaway loop guard)
};

enum class trap_kind : std::uint8_t {
    none,
    stack_smash,    // __stack_chk_fail -> __GI__fortify_fail analog
    segfault,       // unmapped or mis-sized memory access
    invalid_jump,   // control transferred to a non-instruction address
    stack_overrun,  // rsp left the stack region
};

[[nodiscard]] std::string to_string(exec_status status);
[[nodiscard]] std::string to_string(trap_kind trap);

struct run_result {
    exec_status status = exec_status::running;
    trap_kind trap = trap_kind::none;
    std::int64_t exit_code = 0;       // valid when exited
    std::uint32_t syscall_number = 0; // valid when syscalled
    std::uint64_t fault_addr = 0;     // valid for segfault/invalid_jump
};

// Cap on accumulated sys_write output. A hijacked or runaway worker under
// a generous fuel budget could otherwise balloon the host-side string; the
// workloads' legitimate responses are a few dozen bytes. Writes past the
// cap still succeed (rax = count), the excess bytes are just not retained.
inline constexpr std::size_t max_output_bytes = std::size_t{1} << 20;

// Gap between the top of the stack region and the initial rsp — the
// argv/envp/auxv area of a real process. Gives runaway writes above the
// first frame somewhere mapped to land, so a canary check (not a fault in
// the middle of the copy) reports them, as on a real stack.
inline constexpr std::uint64_t initial_stack_headroom = 512;

struct flags_state {
    bool zf = false;
    bool cf = false;
    bool lt_signed = false;
    bool lt_unsigned = false;
};

class machine {
  public:
    machine(std::shared_ptr<const program> prog, memory::layout layout,
            std::uint64_t entropy_seed);

    // ---- Register file ----
    [[nodiscard]] std::uint64_t get(reg r) const noexcept;
    void set(reg r, std::uint64_t value) noexcept;
    struct xmm_value {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
        friend bool operator==(const xmm_value&, const xmm_value&) = default;
    };
    [[nodiscard]] xmm_value get_x(xreg x) const noexcept;
    void set_x(xreg x, xmm_value value) noexcept;
    [[nodiscard]] flags_state& flags() noexcept { return flags_; }

    // ---- Memory / TLS ----
    [[nodiscard]] memory& mem() noexcept { return mem_; }
    [[nodiscard]] const memory& mem() const noexcept { return mem_; }
    [[nodiscard]] std::uint64_t fs_base() const noexcept { return fs_base_; }

    // ---- Execution ----
    // Prepares a call to `entry` from scratch: resets rsp to the stack top,
    // pushes the return sentinel, points rip at `entry`. Registers other
    // than rsp are preserved so the harness can pre-load arguments.
    void call_function(std::uint64_t entry);

    // Executes up to `max_steps` instructions (0 = until stop/fuel) on the
    // engine selected by dispatch().
    run_result run(std::uint64_t max_steps = 0);

    // Executes exactly one instruction via the legacy switch stepper —
    // the debug / differential-testing interface. Equivalent to
    // run(1) in switch_loop mode regardless of the dispatch() setting:
    // `running` means "paused after one step", any other status is the
    // same event run() would have stopped at.
    run_result step();

    // Dispatch engine selection. Initialized from default_dispatch()
    // (PSSP_VM_DISPATCH env override) at construction; a pure
    // execution-speed knob — outcomes are identical across modes.
    [[nodiscard]] dispatch_mode dispatch() const noexcept { return dispatch_; }
    void set_dispatch(dispatch_mode mode) noexcept { dispatch_ = mode; }

    // Resumes after a serviced syscall; `rax_value` is the syscall result.
    void complete_syscall(std::uint64_t rax_value);

    // Ends the guest from inside a native helper — the host analog of
    // glibc's __GI__fortify_fail aborting on a smashed stack. Records a
    // pending trap and lets the helper return; the native-call edge of
    // either engine then stops with a trapped run_result (fault_addr = the
    // calling instruction) and clears the slot, so a machine at rest never
    // carries one. Cycles the helper charged before raising are kept.
    void raise_trap(trap_kind kind) noexcept { pending_trap_ = kind; }
    [[nodiscard]] trap_kind pending_trap() const noexcept { return pending_trap_; }

    // ---- Execution profiling (obs side channel) ----
    // When set, run() counts per-handler dispatches and cycle charges into
    // `profile` (shared across snapshot/fork copies of this machine, so a
    // pool's clones aggregate into one table). Profiling changes no
    // architectural outcome — the unprofiled threaded loop is a separate
    // template instantiation that carries zero profiling code.
    void set_profile(std::shared_ptr<exec_profile> profile) noexcept {
        profile_ = std::move(profile);
    }
    [[nodiscard]] const std::shared_ptr<exec_profile>& profile() const noexcept {
        return profile_;
    }

    // ---- Accounting ----
    [[nodiscard]] std::uint64_t cycles() const noexcept { return cycles_; }
    [[nodiscard]] std::uint64_t steps() const noexcept { return steps_; }
    [[nodiscard]] cost_model& costs() noexcept { return costs_; }
    void charge(std::uint64_t extra_cycles) noexcept { cycles_ += extra_cycles; }

    // Cumulative fuel cap (instructions); 0 = unlimited. Guards attack
    // campaigns against runaway loops in corrupted control flow.
    void set_fuel(std::uint64_t max_total_steps) noexcept { fuel_ = max_total_steps; }

    // ---- Process plumbing ----
    [[nodiscard]] std::uint32_t pid() const noexcept { return pid_; }
    void set_pid(std::uint32_t pid) noexcept { pid_ = pid; }
    [[nodiscard]] crypto::entropy_source& entropy() noexcept { return entropy_; }
    void reseed_entropy(std::uint64_t seed) noexcept {
        entropy_ = crypto::entropy_source{seed};
    }

    // Bytes written via sys_write (request/response channel of the server
    // workloads, and the "win" marker of hijack detection).
    [[nodiscard]] const std::string& output() const noexcept { return output_; }
    void clear_output() noexcept { output_.clear(); }

    [[nodiscard]] const program& prog() const noexcept { return *prog_; }
    [[nodiscard]] std::shared_ptr<const program> prog_ptr() const noexcept { return prog_; }

    // Current instruction address (for diagnostics).
    [[nodiscard]] std::uint64_t current_address() const noexcept;

    // ---- Snapshot / restore / fork fast paths ----
    // A snapshot is simply an earlier copy of the machine (copy
    // construction); these members rewind to / converge on such a copy
    // while moving only dirty pages instead of whole regions.

    // Rewinds *this to `snap`, which must be a copy of *this taken while
    // the memory's restore channel was clean (mem().mark_clean). Scalars
    // copy wholesale; memory restores dirty pages only.
    void restore_from(const machine& snap);

    // Makes *this an exact replica of `src` (same program), assuming the
    // two were identical when both fork channels were last cleared. The
    // cheap fork: the process layer recycles one worker machine per server
    // this way instead of deep-copying 0.5 MB per request.
    void sync_from(machine& src);

  private:
    std::shared_ptr<const program> prog_;
    memory mem_;
    std::array<std::uint64_t, gpr_count> gpr_{};
    std::array<xmm_value, xmm_count> xmm_{};
    flags_state flags_{};
    std::uint64_t fs_base_;
    std::uint32_t rip_ = 0;  // instruction index
    bool rip_valid_ = false;

    cost_model costs_{};
    // Flattened cost table, cached behind a shared pointer keyed on the
    // cost_model parameters it was built from. Rebuilt lazily at run()
    // entry only when costs_ changed; snapshot/restore and the
    // per-request fork fast path copy the 16-byte pointer, not the table,
    // and machines cloned from one master all share one allocation.
    std::shared_ptr<const cost_table> cost_cache_;
    cost_model cost_cache_key_{};
    dispatch_mode dispatch_ = default_dispatch();
    std::shared_ptr<exec_profile> profile_;  // null = no profiling
    std::uint64_t cycles_ = 0;
    std::uint64_t steps_ = 0;
    std::uint64_t fuel_ = 0;
    std::uint64_t tsc_base_ = 0;

    crypto::entropy_source entropy_;
    std::uint32_t pid_ = 1;
    std::string output_;

    run_result finished_{};  // sticky result once exited/trapped
    bool finished_valid_ = false;
    trap_kind pending_trap_ = trap_kind::none;  // see raise_trap()

    // ---- Internal helpers ----
    [[nodiscard]] std::uint64_t effective_address(const mem_operand& m) const noexcept;
    // Fault-status memory helpers: on an unmapped access they fill `out`
    // with a segfault trap and return false (no exception).
    [[nodiscard]] bool ld(std::uint64_t addr, std::size_t size, std::uint64_t& value,
                          run_result& out) noexcept;
    [[nodiscard]] bool st(std::uint64_t addr, std::size_t size, std::uint64_t value,
                          run_result& out) noexcept;
    [[nodiscard]] bool push64(std::uint64_t value, run_result& out) noexcept;
    [[nodiscard]] bool pop64(std::uint64_t& value, run_result& out) noexcept;
    // Transfers control to `addr`; returns false (and fills `out`) on an
    // invalid target.
    [[nodiscard]] bool jump_to(std::uint64_t addr, run_result& out);
    // Native-call edge: runs the helper bound to the current call. Returns
    // false (and fills `out`) if it raised a trap or faulted on the
    // throwing memory API.
    [[nodiscard]] bool call_native(const native_fn& fn, run_result& out);
    // One instruction on the legacy switch engine (no fuel/bounds checks —
    // run_switch and step() wrap those).
    [[nodiscard]] run_result exec_one_switch(const cost_table& ct);
    // The two run() engines; both honor fuel/max_steps and the sticky
    // finished_ contract identically. The threaded engine is instantiated
    // twice: kProfile=false is the production hot path (bit-identical to
    // the unprofiled loop), kProfile=true additionally feeds profile_.
    [[nodiscard]] run_result run_switch(std::uint64_t max_steps);
    template <bool kProfile>
    [[nodiscard]] run_result run_threaded_impl(std::uint64_t max_steps);
    // Rebuilds cost_cache_ if costs_ drifted from the cached key; returns
    // the table to run with.
    [[nodiscard]] const cost_table& refresh_cost_cache();
    void set_alu_flags(std::uint64_t result) noexcept;
    void copy_scalars_from(const machine& src);
};

}  // namespace pssp::vm
