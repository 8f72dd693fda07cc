#include "vm/isa.hpp"

#include <array>
#include <sstream>

namespace pssp::vm {

namespace {

// REX.B/R is required whenever r8..r15 participates, adding one byte —
// this is why `push %r12` is 2 bytes while `push %rbp` is 1.
[[nodiscard]] bool is_extended(reg r) noexcept {
    return r >= reg::r8 && r <= reg::r15;
}

// Displacement encoding: 0 bytes when disp == 0 with a plain base,
// 1 byte for disp8, else 4 bytes. rbp-based always needs at least disp8.
[[nodiscard]] std::size_t disp_bytes(const mem_operand& m) noexcept {
    if (m.base == reg::none) return 4;  // absolute: disp32
    if (m.disp == 0 && m.base != reg::rbp) return 0;
    if (m.disp >= -128 && m.disp <= 127) return 1;
    return 4;
}

// Common length of a reg<->mem operation: opcode + modrm + REX.W (64-bit)
// + optional segment prefix + displacement.
[[nodiscard]] std::size_t rm_length(const instruction& insn, std::size_t opcode_bytes,
                                    bool rex_w) noexcept {
    std::size_t len = opcode_bytes + 1 /*modrm*/ + disp_bytes(insn.mem);
    if (rex_w || is_extended(insn.r1) || is_extended(insn.r2) ||
        is_extended(insn.mem.base))
        len += 1;
    if (insn.mem.seg == segment::fs) len += 1;
    return len;
}

}  // namespace

std::size_t encoded_length(const instruction& insn) noexcept {
    switch (insn.op) {
        case opcode::nop:
            return 1;
        case opcode::push_r:
        case opcode::pop_r:
            return is_extended(insn.r1) ? 2 : 1;
        case opcode::push_i:
            return 5;  // 68 id
        case opcode::mov_rr:
        case opcode::add_rr:
        case opcode::sub_rr:
        case opcode::xor_rr:
        case opcode::or_rr:
        case opcode::cmp_rr:
        case opcode::test_rr:
            return 3;  // REX.W + opcode + modrm
        case opcode::imul_rr:
            return 4;  // REX.W 0F AF /r
        case opcode::mov_ri:
            return 10;  // REX.W B8+rd io (movabs)
        case opcode::add_ri:
        case opcode::sub_ri:
        case opcode::xor_ri:
        case opcode::and_ri:
        case opcode::cmp_ri:
        case opcode::imul_ri:
            return 7;  // REX.W 81 /n id
        case opcode::shl_ri:
        case opcode::shr_ri:
            return 4;  // REX.W C1 /n ib
        case opcode::mov_rm:
        case opcode::mov_mr:
            return rm_length(insn, 1, true);
        case opcode::mov_mi:
            return rm_length(insn, 1, true) + 4;  // + imm32
        case opcode::mov32_rm:
        case opcode::mov32_mr:
            return rm_length(insn, 1, false);
        case opcode::movzx8_rm:
            return rm_length(insn, 2, true);  // 0F B6
        case opcode::mov8_mr:
            return rm_length(insn, 1, false);
        case opcode::lea:
            return rm_length(insn, 1, true);
        case opcode::xor_rm:
        case opcode::cmp_rm:
            return rm_length(insn, 1, true);
        case opcode::je:
        case opcode::jne:
        case opcode::jb:
        case opcode::jae:
        case opcode::jl:
        case opcode::jge:
        case opcode::jnc:
            return 6;  // 0F 8x rel32 (near form; we always use near)
        case opcode::jmp:
            return 5;  // E9 rel32
        case opcode::call:
            return 5;  // E8 rel32
        case opcode::ret:
            return 1;
        case opcode::leave:
            return 1;
        case opcode::rdrand_r:
            return is_extended(insn.r1) ? 5 : 4;  // REX.W 0F C7 /6
        case opcode::rdtsc:
            return 2;  // 0F 31
        case opcode::movq_xr:
        case opcode::movq_rx:
            return 5;  // 66 REX.W 0F 6E/7E /r
        case opcode::movhps_xm:
            return 4 + disp_bytes(insn.mem);
        case opcode::punpckhqdq_xr:
            return 5;
        case opcode::movdqu_mx:
        case opcode::movdqu_xm:
            return 4 + disp_bytes(insn.mem);
        case opcode::cmp128_xm:
            return 4 + disp_bytes(insn.mem);
        case opcode::syscall_i:
            return 2 + 5;  // mov eax, imm32 (folded) + 0F 05
        case opcode::trap_abort:
            return 2;  // 0F 0B (ud2)
        case opcode::hlt:
            return 1;
        case opcode::sim_delay:
            return 5;  // the patched jmp-to-trampoline
    }
    return 1;
}

std::string reg_name(reg r) {
    static constexpr std::array<const char*, 16> names = {
        "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
        "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
    if (r == reg::none) return "<none>";
    return names[static_cast<std::size_t>(r)];
}

namespace {

[[nodiscard]] std::string xreg_name(xreg x) {
    if (x == xreg::none) return "<none>";
    return "xmm" + std::to_string(static_cast<int>(x));
}

[[nodiscard]] std::string mem_str(const mem_operand& m) {
    std::ostringstream out;
    if (m.seg == segment::fs) out << "%fs:";
    out << std::showpos << m.disp << std::noshowpos;
    if (m.base != reg::none) out << "(%" << reg_name(m.base) << ")";
    return out.str();
}

[[nodiscard]] std::string addr_str(std::uint64_t addr) {
    std::ostringstream out;
    out << "0x" << std::hex << addr;
    return out.str();
}

// Jump/call operand: local label before assembly, absolute address after.
[[nodiscard]] std::string target_str(const instruction& i) {
    if (i.label != no_id) return std::string{"L"}.append(std::to_string(i.label));
    if (i.sym != no_id) return std::string{"sym"}.append(std::to_string(i.sym));
    return addr_str(i.imm);
}

}  // namespace

std::string to_string(const instruction& i) {
    std::ostringstream out;
    auto r = [](reg x) { return std::string{"%"}.append(reg_name(x)); };
    switch (i.op) {
        case opcode::nop: out << "nop"; break;
        case opcode::push_r: out << "push " << r(i.r1); break;
        case opcode::push_i: out << "push $" << static_cast<std::int64_t>(i.imm); break;
        case opcode::pop_r: out << "pop " << r(i.r1); break;
        case opcode::mov_rr: out << "mov " << r(i.r2) << "," << r(i.r1); break;
        case opcode::mov_ri: out << "movabs $0x" << std::hex << i.imm << std::dec << "," << r(i.r1); break;
        case opcode::mov_rm: out << "mov " << mem_str(i.mem) << "," << r(i.r1); break;
        case opcode::mov_mr: out << "mov " << r(i.r2) << "," << mem_str(i.mem); break;
        case opcode::mov_mi: out << "movq $" << static_cast<std::int64_t>(i.imm) << "," << mem_str(i.mem); break;
        case opcode::mov32_rm: out << "movl " << mem_str(i.mem) << "," << r(i.r1); break;
        case opcode::mov32_mr: out << "movl " << r(i.r2) << "," << mem_str(i.mem); break;
        case opcode::movzx8_rm: out << "movzbq " << mem_str(i.mem) << "," << r(i.r1); break;
        case opcode::mov8_mr: out << "movb " << r(i.r2) << "," << mem_str(i.mem); break;
        case opcode::lea: out << "lea " << mem_str(i.mem) << "," << r(i.r1); break;
        case opcode::add_rr: out << "add " << r(i.r2) << "," << r(i.r1); break;
        case opcode::add_ri: out << "add $" << static_cast<std::int64_t>(i.imm) << "," << r(i.r1); break;
        case opcode::sub_rr: out << "sub " << r(i.r2) << "," << r(i.r1); break;
        case opcode::sub_ri: out << "sub $" << static_cast<std::int64_t>(i.imm) << "," << r(i.r1); break;
        case opcode::xor_rr: out << "xor " << r(i.r2) << "," << r(i.r1); break;
        case opcode::xor_ri: out << "xor $" << static_cast<std::int64_t>(i.imm) << "," << r(i.r1); break;
        case opcode::xor_rm: out << "xor " << mem_str(i.mem) << "," << r(i.r1); break;
        case opcode::or_rr: out << "or " << r(i.r2) << "," << r(i.r1); break;
        case opcode::and_ri: out << "and $" << static_cast<std::int64_t>(i.imm) << "," << r(i.r1); break;
        case opcode::shl_ri: out << "shl $" << i.imm << "," << r(i.r1); break;
        case opcode::shr_ri: out << "shr $" << i.imm << "," << r(i.r1); break;
        case opcode::imul_rr: out << "imul " << r(i.r2) << "," << r(i.r1); break;
        case opcode::imul_ri: out << "imul $" << static_cast<std::int64_t>(i.imm) << "," << r(i.r1); break;
        case opcode::cmp_rr: out << "cmp " << r(i.r2) << "," << r(i.r1); break;
        case opcode::cmp_ri: out << "cmp $" << static_cast<std::int64_t>(i.imm) << "," << r(i.r1); break;
        case opcode::cmp_rm: out << "cmp " << mem_str(i.mem) << "," << r(i.r1); break;
        case opcode::test_rr: out << "test " << r(i.r2) << "," << r(i.r1); break;
        case opcode::je: out << "je " << target_str(i); break;
        case opcode::jne: out << "jne " << target_str(i); break;
        case opcode::jb: out << "jb " << target_str(i); break;
        case opcode::jae: out << "jae " << target_str(i); break;
        case opcode::jl: out << "jl " << target_str(i); break;
        case opcode::jge: out << "jge " << target_str(i); break;
        case opcode::jnc: out << "jnc " << target_str(i); break;
        case opcode::jmp: out << "jmp " << target_str(i); break;
        case opcode::call: out << "callq " << target_str(i); break;
        case opcode::ret: out << "retq"; break;
        case opcode::leave: out << "leaveq"; break;
        case opcode::rdrand_r: out << "rdrand " << r(i.r1); break;
        case opcode::rdtsc: out << "rdtsc"; break;
        case opcode::movq_xr: out << "movq " << r(i.r2) << ",%" << xreg_name(i.x1); break;
        case opcode::movq_rx: out << "movq %" << xreg_name(i.x2) << "," << r(i.r1); break;
        case opcode::movhps_xm: out << "movhps " << mem_str(i.mem) << ",%" << xreg_name(i.x1); break;
        case opcode::punpckhqdq_xr: out << "punpckhqdq " << r(i.r2) << ",%" << xreg_name(i.x1); break;
        case opcode::movdqu_mx: out << "movdqu %" << xreg_name(i.x2) << "," << mem_str(i.mem); break;
        case opcode::movdqu_xm: out << "movdqu " << mem_str(i.mem) << ",%" << xreg_name(i.x1); break;
        case opcode::cmp128_xm: out << "cmp128 " << mem_str(i.mem) << ",%" << xreg_name(i.x1); break;
        case opcode::syscall_i: out << "syscall $" << i.imm; break;
        case opcode::trap_abort: out << "ud2 (abort)"; break;
        case opcode::hlt: out << "hlt"; break;
        case opcode::sim_delay: out << "sim_delay $" << i.imm; break;
    }
    return out.str();
}

namespace isa {

mem_operand mem(reg base, std::int32_t disp) { return {base, disp, segment::none}; }
mem_operand fs(std::int32_t disp) { return {reg::none, disp, segment::fs}; }

namespace {
instruction make(opcode op) {
    instruction i;
    i.op = op;
    return i;
}
}  // namespace

instruction nop() { return make(opcode::nop); }

instruction push_r(reg r) {
    auto i = make(opcode::push_r);
    i.r1 = r;
    return i;
}

instruction push_i(std::int32_t v) {
    auto i = make(opcode::push_i);
    i.imm = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    return i;
}

instruction pop_r(reg r) {
    auto i = make(opcode::pop_r);
    i.r1 = r;
    return i;
}

instruction mov_rr(reg dst, reg src) {
    auto i = make(opcode::mov_rr);
    i.r1 = dst;
    i.r2 = src;
    return i;
}

instruction mov_ri(reg dst, std::uint64_t v) {
    auto i = make(opcode::mov_ri);
    i.r1 = dst;
    i.imm = v;
    return i;
}

instruction mov_rm(reg dst, mem_operand m) {
    auto i = make(opcode::mov_rm);
    i.r1 = dst;
    i.mem = m;
    return i;
}

instruction mov_mr(mem_operand m, reg src) {
    auto i = make(opcode::mov_mr);
    i.r2 = src;
    i.mem = m;
    return i;
}

instruction mov_mi(mem_operand m, std::int32_t v) {
    auto i = make(opcode::mov_mi);
    i.mem = m;
    i.imm = static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
    return i;
}

instruction mov32_rm(reg dst, mem_operand m) {
    auto i = make(opcode::mov32_rm);
    i.r1 = dst;
    i.mem = m;
    return i;
}

instruction mov32_mr(mem_operand m, reg src) {
    auto i = make(opcode::mov32_mr);
    i.r2 = src;
    i.mem = m;
    return i;
}

instruction movzx8_rm(reg dst, mem_operand m) {
    auto i = make(opcode::movzx8_rm);
    i.r1 = dst;
    i.mem = m;
    return i;
}

instruction mov8_mr(mem_operand m, reg src) {
    auto i = make(opcode::mov8_mr);
    i.r2 = src;
    i.mem = m;
    return i;
}

instruction lea(reg dst, mem_operand m) {
    auto i = make(opcode::lea);
    i.r1 = dst;
    i.mem = m;
    return i;
}

namespace {
instruction alu_rr(opcode op, reg dst, reg src) {
    instruction i;
    i.op = op;
    i.r1 = dst;
    i.r2 = src;
    return i;
}
instruction alu_ri(opcode op, reg dst, std::int64_t v) {
    instruction i;
    i.op = op;
    i.r1 = dst;
    i.imm = static_cast<std::uint64_t>(v);
    return i;
}
}  // namespace

instruction add_rr(reg dst, reg src) { return alu_rr(opcode::add_rr, dst, src); }
instruction add_ri(reg dst, std::int32_t v) { return alu_ri(opcode::add_ri, dst, v); }
instruction sub_rr(reg dst, reg src) { return alu_rr(opcode::sub_rr, dst, src); }
instruction sub_ri(reg dst, std::int32_t v) { return alu_ri(opcode::sub_ri, dst, v); }
instruction xor_rr(reg dst, reg src) { return alu_rr(opcode::xor_rr, dst, src); }
instruction xor_ri(reg dst, std::int32_t v) { return alu_ri(opcode::xor_ri, dst, v); }

instruction xor_rm(reg dst, mem_operand m) {
    auto i = make(opcode::xor_rm);
    i.r1 = dst;
    i.mem = m;
    return i;
}

instruction or_rr(reg dst, reg src) { return alu_rr(opcode::or_rr, dst, src); }
instruction and_ri(reg dst, std::int32_t v) { return alu_ri(opcode::and_ri, dst, v); }
instruction shl_ri(reg dst, std::uint8_t bits) { return alu_ri(opcode::shl_ri, dst, bits); }
instruction shr_ri(reg dst, std::uint8_t bits) { return alu_ri(opcode::shr_ri, dst, bits); }
instruction imul_rr(reg dst, reg src) { return alu_rr(opcode::imul_rr, dst, src); }
instruction imul_ri(reg dst, std::int32_t v) { return alu_ri(opcode::imul_ri, dst, v); }
instruction cmp_rr(reg a, reg b) { return alu_rr(opcode::cmp_rr, a, b); }
instruction cmp_ri(reg a, std::int32_t v) { return alu_ri(opcode::cmp_ri, a, v); }

instruction cmp_rm(reg a, mem_operand m) {
    auto i = make(opcode::cmp_rm);
    i.r1 = a;
    i.mem = m;
    return i;
}

instruction test_rr(reg a, reg b) { return alu_rr(opcode::test_rr, a, b); }

namespace {
instruction jump(opcode op, std::uint32_t label) {
    instruction i;
    i.op = op;
    i.label = label;
    return i;
}
}  // namespace

instruction je(std::uint32_t label) { return jump(opcode::je, label); }
instruction jne(std::uint32_t label) { return jump(opcode::jne, label); }
instruction jb(std::uint32_t label) { return jump(opcode::jb, label); }
instruction jae(std::uint32_t label) { return jump(opcode::jae, label); }
instruction jl(std::uint32_t label) { return jump(opcode::jl, label); }
instruction jge(std::uint32_t label) { return jump(opcode::jge, label); }
instruction jnc(std::uint32_t label) { return jump(opcode::jnc, label); }
instruction jmp(std::uint32_t label) { return jump(opcode::jmp, label); }

instruction call_sym(std::uint32_t sym) {
    auto i = make(opcode::call);
    i.sym = sym;
    return i;
}

instruction ret() { return make(opcode::ret); }
instruction leave() { return make(opcode::leave); }

instruction rdrand(reg dst) {
    auto i = make(opcode::rdrand_r);
    i.r1 = dst;
    return i;
}

instruction rdtsc() { return make(opcode::rdtsc); }

instruction movq_xr(xreg dst, reg src) {
    auto i = make(opcode::movq_xr);
    i.x1 = dst;
    i.r2 = src;
    return i;
}

instruction movq_rx(reg dst, xreg src) {
    auto i = make(opcode::movq_rx);
    i.r1 = dst;
    i.x2 = src;
    return i;
}

instruction movhps_xm(xreg dst, mem_operand m) {
    auto i = make(opcode::movhps_xm);
    i.x1 = dst;
    i.mem = m;
    return i;
}

instruction punpckhqdq_xr(xreg dst, reg src) {
    auto i = make(opcode::punpckhqdq_xr);
    i.x1 = dst;
    i.r2 = src;
    return i;
}

instruction movdqu_mx(mem_operand m, xreg src) {
    auto i = make(opcode::movdqu_mx);
    i.x2 = src;
    i.mem = m;
    return i;
}

instruction movdqu_xm(xreg dst, mem_operand m) {
    auto i = make(opcode::movdqu_xm);
    i.x1 = dst;
    i.mem = m;
    return i;
}

instruction cmp128_xm(xreg a, mem_operand m) {
    auto i = make(opcode::cmp128_xm);
    i.x1 = a;
    i.mem = m;
    return i;
}

instruction syscall_i(std::uint32_t number) {
    auto i = make(opcode::syscall_i);
    i.imm = number;
    return i;
}

instruction trap_abort() { return make(opcode::trap_abort); }
instruction hlt() { return make(opcode::hlt); }

instruction sim_delay(std::uint32_t cycles) {
    auto i = make(opcode::sim_delay);
    i.imm = cycles;
    return i;
}

}  // namespace isa

}  // namespace pssp::vm
