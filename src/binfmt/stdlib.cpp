#include "binfmt/stdlib.hpp"

#include <cstdint>
#include <cstring>

#include "crypto/aes128.hpp"
#include "crypto/one_way.hpp"
#include "vm/machine.hpp"

namespace pssp::binfmt {

using namespace vm::isa;
using vm::reg;
using vm::xreg;

namespace native {

void stack_chk_fail_abort(vm::machine& m) {
    m.raise_trap(vm::trap_kind::stack_smash);
}

void aes_encrypt_128(vm::machine& m) {
    const auto key = m.get_x(xreg::xmm1);
    const auto block = m.get_x(xreg::xmm15);
    const crypto::aes128 cipher{key.lo, key.hi};
    const auto ct = cipher.encrypt({block.lo, block.hi});
    m.set_x(xreg::xmm15, {ct.lo, ct.hi});
    m.charge(m.costs().aes_helper);
}

void sha1_owf_128(vm::machine& m) {
    const auto key = m.get_x(xreg::xmm1);
    const auto block = m.get_x(xreg::xmm15);  // lo = nonce, hi = ret
    const auto owf = crypto::make_owf(crypto::owf_kind::sha1);
    const auto out = owf->evaluate128(key.lo, key.hi, block.hi, block.lo);
    m.set_x(xreg::xmm15, {out.lo, out.hi});
    m.charge(690);  // software SHA-1 compression; no hardware assist
}

void strcpy_impl(vm::machine& m) {
    const std::uint64_t dst = m.get(reg::rdi);
    const std::uint64_t src = m.get(reg::rsi);
    std::uint64_t i = 0;
    for (;;) {
        const std::uint8_t byte = m.mem().load8(src + i);
        m.mem().store8(dst + i, byte);
        ++i;
        if (byte == 0) break;
    }
    m.set(reg::rax, dst);
    m.charge(2 * i + 4);
}

// memcpy and memset resolve the whole range once and copy it with one host
// call. When a range is not mapped end to end — or a memcpy destination
// starts inside (src, src+len), where the forward byte copy replicates the
// source pattern instead of moving it — they fall back to the byte loop,
// which faults at the first bad byte after writing every byte before it.
// Both paths leave the same bytes, dirty pages, fault address, rax and
// cycle charge.
void memcpy_impl(vm::machine& m) {
    const std::uint64_t dst = m.get(reg::rdi);
    const std::uint64_t src = m.get(reg::rsi);
    const std::uint64_t len = m.get(reg::rdx);
    auto& mem = m.mem();
    const std::uint8_t* from = mem.try_at(src, len);
    std::uint8_t* to = from != nullptr ? mem.try_at_mut(dst, len) : nullptr;
    if (to != nullptr && !(to > from && static_cast<std::uint64_t>(to - from) < len)) {
        std::memmove(to, from, len);
    } else {
        for (std::uint64_t i = 0; i < len; ++i) mem.store8(dst + i, mem.load8(src + i));
    }
    m.set(reg::rax, dst);
    m.charge(2 * len + 4);
}

void memset_impl(vm::machine& m) {
    const std::uint64_t dst = m.get(reg::rdi);
    const auto value = static_cast<std::uint8_t>(m.get(reg::rsi));
    const std::uint64_t len = m.get(reg::rdx);
    auto& mem = m.mem();
    if (std::uint8_t* to = mem.try_at_mut(dst, len)) {
        std::memset(to, value, len);
    } else {
        for (std::uint64_t i = 0; i < len; ++i) mem.store8(dst + i, value);
    }
    m.set(reg::rax, dst);
    m.charge(len + 4);
}

void strlen_impl(vm::machine& m) {
    const std::uint64_t s = m.get(reg::rdi);
    std::uint64_t n = 0;
    while (m.mem().load8(s + n) != 0) ++n;
    m.set(reg::rax, n);
    m.charge(n + 4);
}

}  // namespace native

namespace {

// ---- VM-code libc (static_glibc) -------------------------------------------
// These are compiled without stack protection, like real glibc string
// routines (leaf functions with no local buffers get no canary under
// -fstack-protector), so every byte they copy is a *caller*-frame byte —
// which is exactly how an unbounded strcpy smashes the caller's canary.

void add_vm_strcpy(image& img) {
    auto& f = img.add_function(sym_strcpy, /*from_libc=*/true);
    const auto loop = f.new_label();
    f.emit(mov_rr(reg::rax, reg::rdi));
    f.place(loop);
    f.emit({movzx8_rm(reg::rcx, mem(reg::rsi, 0)), mov8_mr(mem(reg::rdi, 0), reg::rcx),
            add_ri(reg::rdi, 1), add_ri(reg::rsi, 1), test_rr(reg::rcx, reg::rcx),
            jne(loop), ret()});
}

void add_vm_memcpy(image& img) {
    auto& f = img.add_function(sym_memcpy, /*from_libc=*/true);
    const auto loop = f.new_label();
    const auto done = f.new_label();
    f.emit({mov_rr(reg::rax, reg::rdi), mov_rr(reg::rcx, reg::rdx)});
    f.place(loop);
    f.emit({test_rr(reg::rcx, reg::rcx), je(done), movzx8_rm(reg::r8, mem(reg::rsi, 0)),
            mov8_mr(mem(reg::rdi, 0), reg::r8), add_ri(reg::rdi, 1),
            add_ri(reg::rsi, 1), sub_ri(reg::rcx, 1), jmp(loop)});
    f.place(done);
    f.emit(ret());
}

void add_vm_memset(image& img) {
    auto& f = img.add_function(sym_memset, /*from_libc=*/true);
    const auto loop = f.new_label();
    const auto done = f.new_label();
    f.emit({mov_rr(reg::rax, reg::rdi), mov_rr(reg::rcx, reg::rdx)});
    f.place(loop);
    f.emit({test_rr(reg::rcx, reg::rcx), je(done), mov8_mr(mem(reg::rdi, 0), reg::rsi),
            add_ri(reg::rdi, 1), sub_ri(reg::rcx, 1), jmp(loop)});
    f.place(done);
    f.emit(ret());
}

void add_vm_strlen(image& img) {
    auto& f = img.add_function(sym_strlen, /*from_libc=*/true);
    const auto loop = f.new_label();
    const auto done = f.new_label();
    f.emit(mov_ri(reg::rax, 0));
    f.place(loop);
    f.emit({movzx8_rm(reg::rcx, mem(reg::rdi, 0)), test_rr(reg::rcx, reg::rcx), je(done),
            add_ri(reg::rdi, 1), add_ri(reg::rax, 1), jmp(loop)});
    f.place(done);
    f.emit(ret());
}

void add_vm_fork(image& img) {
    // fork() is a thin syscall wrapper in both modes; in a statically
    // instrumented binary the rewriter hooks this entry and redirects to a
    // P-SSP-aware version in the appended section (Section V-D).
    auto& f = img.add_function(sym_fork, /*from_libc=*/true);
    f.emit({syscall_i(static_cast<std::uint32_t>(vm::syscall_no::sys_fork)), ret()});
}

void add_vm_stack_chk_fail(image& img) {
    // Stock glibc shape (Fig 3, left side): report and abort. The VM
    // version "reports" by falling straight into __GI__fortify_fail.
    auto& fail = img.add_function(sym_fortify_fail, /*from_libc=*/true);
    fail.emit(trap_abort());

    auto& f = img.add_function(sym_stack_chk_fail, /*from_libc=*/true);
    f.emit({call_sym(img.sym(sym_fortify_fail)), ret()});
}

}  // namespace

void add_standard_library(image& img, link_mode mode) {
    // Crypto helpers model hardware / hand-tuned primitives: native in
    // both modes, costed via the cycle model.
    img.add_native_import(sym_aes_encrypt, native::aes_encrypt_128);
    img.add_native_import(sym_sha1_owf, native::sha1_owf_128);

    if (mode == link_mode::dynamic_glibc) {
        img.add_native_import(sym_strcpy, native::strcpy_impl);
        img.add_native_import(sym_memcpy, native::memcpy_impl);
        img.add_native_import(sym_memset, native::memset_impl);
        img.add_native_import(sym_strlen, native::strlen_impl);
        img.add_native_import(sym_stack_chk_fail, native::stack_chk_fail_abort);
        img.add_native_import(sym_fortify_fail, native::stack_chk_fail_abort);
        add_vm_fork(img);  // must execute a real syscall; kept as a VM stub
        return;
    }

    add_vm_strcpy(img);
    add_vm_memcpy(img);
    add_vm_memset(img);
    add_vm_strlen(img);
    add_vm_fork(img);
    add_vm_stack_chk_fail(img);
}

}  // namespace pssp::binfmt
