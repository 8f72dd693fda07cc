// The span-wise native memcpy/memset stubs against the byte loop they
// replace. A seeded sweep of (dst, src, len) — overlaps in both
// directions, ranges running off the end of each region, unmapped
// endpoints, len == 0 — must leave the same memory bytes, dirty pages on
// both channels, fault address, rax and cycle charge, whether the stub is
// called directly or through a guest call.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "binfmt/image.hpp"
#include "binfmt/stdlib.hpp"
#include "crypto/prng.hpp"
#include "vm/machine.hpp"

namespace pssp {
namespace {

using namespace vm::isa;
using vm::reg;

// The byte loops the span-wise stubs must stay equivalent to.
void reference_memcpy(vm::machine& m) {
    const std::uint64_t dst = m.get(reg::rdi);
    const std::uint64_t src = m.get(reg::rsi);
    const std::uint64_t len = m.get(reg::rdx);
    for (std::uint64_t i = 0; i < len; ++i) m.mem().store8(dst + i, m.mem().load8(src + i));
    m.set(reg::rax, dst);
    m.charge(2 * len + 4);
}

void reference_memset(vm::machine& m) {
    const std::uint64_t dst = m.get(reg::rdi);
    const auto value = static_cast<std::uint8_t>(m.get(reg::rsi));
    const std::uint64_t len = m.get(reg::rdx);
    for (std::uint64_t i = 0; i < len; ++i) m.mem().store8(dst + i, value);
    m.set(reg::rax, dst);
    m.charge(len + 4);
}

enum class stub { memcpy, memset };

struct stub_case {
    stub which = stub::memcpy;
    std::uint64_t dst = 0;
    std::uint64_t src = 0;  // memset: the fill byte
    std::uint64_t len = 0;
};

std::string describe(const stub_case& c) {
    std::ostringstream out;
    out << (c.which == stub::memcpy ? "memcpy" : "memset") << "(dst=0x" << std::hex
        << c.dst << ", src=0x" << c.src << ", len=" << std::dec << c.len << ")";
    return out.str();
}

// A machine whose every region holds seeded random bytes, with both dirty
// channels clean; `f_memcpy` / `f_memset` call the stubs from guest code.
struct fixture {
    binfmt::linked_binary binary;
    vm::machine pristine;

    explicit fixture(bool reference)
        : binary{link(reference)}, pristine{binary.make_program(), vm::memory::layout{}, 1} {
        crypto::xoshiro256 rng{2018};
        const auto& lay = pristine.mem().regions();
        auto fill = [&](std::uint64_t base, std::uint64_t size) {
            std::vector<std::uint8_t> bytes(size);
            for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
            pristine.mem().write_bytes(base, bytes);
        };
        fill(lay.stack_top - lay.stack_size, lay.stack_size);
        fill(lay.globals_base, lay.globals_size);
        fill(lay.tls_base, lay.tls_size);
        pristine.mem().mark_all_clean();
    }

    static binfmt::linked_binary link(bool reference) {
        binfmt::image img;
        img.add_function("f_memcpy").emit({call_sym(img.sym(binfmt::sym_memcpy)), ret()});
        img.add_function("f_memset").emit({call_sym(img.sym(binfmt::sym_memset)), ret()});
        binfmt::add_standard_library(img, binfmt::link_mode::dynamic_glibc);
        auto binary = img.link(binfmt::link_mode::dynamic_glibc);
        if (reference) {
            binary.bind_native(binfmt::sym_memcpy, reference_memcpy);
            binary.bind_native(binfmt::sym_memset, reference_memset);
        }
        return binary;
    }
};

void load_args(vm::machine& m, const stub_case& c) {
    m.set(reg::rdi, c.dst);
    m.set(reg::rsi, c.src);
    m.set(reg::rdx, c.len);
}

// Calls the stub directly; returns the mem_fault address, if any.
std::optional<std::uint64_t> call_direct(vm::machine& m, const stub_case& c, bool reference) {
    load_args(m, c);
    try {
        if (c.which == stub::memcpy)
            reference ? reference_memcpy(m) : binfmt::native::memcpy_impl(m);
        else
            reference ? reference_memset(m) : binfmt::native::memset_impl(m);
    } catch (const vm::mem_fault& fault) {
        return fault.addr();
    }
    return std::nullopt;
}

vm::run_result call_guest(vm::machine& m, const fixture& fx, const stub_case& c) {
    load_args(m, c);
    m.call_function(fx.binary.symbols.at(c.which == stub::memcpy ? "f_memcpy" : "f_memset"));
    m.set_fuel(1000);
    return m.run();
}

void expect_same_state(const vm::machine& a, const vm::machine& b, const std::string& where) {
    const auto same = [](auto x, auto y) { return std::equal(x.begin(), x.end(), y.begin(), y.end()); };
    EXPECT_TRUE(same(a.mem().stack_bytes(), b.mem().stack_bytes())) << where;
    EXPECT_TRUE(same(a.mem().globals_bytes(), b.mem().globals_bytes())) << where;
    EXPECT_TRUE(same(a.mem().tls_bytes(), b.mem().tls_bytes())) << where;
    for (const auto channel : {vm::dirty_channel::restore, vm::dirty_channel::fork})
        EXPECT_EQ(a.mem().dirty_pages(channel), b.mem().dirty_pages(channel)) << where;
    EXPECT_EQ(a.get(reg::rax), b.get(reg::rax)) << where;
    EXPECT_EQ(a.cycles(), b.cycles()) << where;
}

// The seeded sweep: hand-picked shapes at every region's edges plus random
// placements and lengths.
std::vector<stub_case> sweep() {
    const vm::memory::layout lay{};
    const std::uint64_t stack_lo = lay.stack_top - lay.stack_size;
    const std::uint64_t globals_end = lay.globals_base + lay.globals_size;
    const std::uint64_t tls_end = lay.tls_base + lay.tls_size;
    const std::uint64_t unmapped = 0x1000;

    std::vector<stub_case> cases;
    const auto both = [&cases](std::uint64_t dst, std::uint64_t src, std::uint64_t len) {
        cases.push_back({stub::memcpy, dst, src, len});
        cases.push_back({stub::memset, dst, src & 0xff, len});
    };
    const std::uint64_t g = lay.globals_base + 0x800;
    const std::uint64_t s = lay.stack_top - 0x3000;
    for (const std::uint64_t len : {1ull, 7ull, 64ull, 4096ull, 5000ull}) {
        both(g, g, len);                       // dst == src
        both(g, g + 3, len);                   // backward overlap
        both(g + 3, g, len);                   // forward overlap: replicates
        both(g + len - 1, g, len);             // forward overlap by one byte
        both(s + 8, s, len);                   // forward overlap on the stack
        both(s, s + 8, len);                   // backward overlap on the stack
        both(lay.tls_base + 1, lay.tls_base, std::min<std::uint64_t>(len, 4000));
    }
    // Ranges that run off the end of the stack, globals and TLS regions,
    // as source and as destination: the copy faults partway through.
    for (const std::uint64_t end : {lay.stack_top, globals_end, tls_end}) {
        for (const std::uint64_t back : {1ull, 8ull, 100ull}) {
            both(end - back, g, back + 50);       // destination runs off
            both(g, end - back, back + 50);       // source runs off
            both(end - back, end - back, back + 1);
            both(end - back, g, back);            // ends exactly at the edge
        }
    }
    // Unmapped endpoints from the first byte, and at the low region edges.
    both(unmapped, g, 16);
    both(g, unmapped, 16);
    both(stack_lo - 4, g, 16);
    both(g, stack_lo - 4, 16);
    both(lay.tls_base - 1, g, 2);
    // len == 0, mapped and unmapped.
    both(g, s, 0);
    both(unmapped, unmapped, 0);
    both(globals_end, tls_end, 0);

    // Random placements near region edges and in the middle.
    crypto::xoshiro256 rng{12};
    const std::uint64_t anchors[] = {stack_lo, lay.stack_top, lay.globals_base, globals_end,
                                     lay.tls_base, tls_end, s, g};
    const std::uint64_t lens[] = {0, 1, 2, 8, 31, 64, 255, 4095, 4096, 4097, 9000};
    for (int i = 0; i < 400; ++i) {
        const auto pick = [&](std::uint64_t anchor) {
            const auto jitter = static_cast<std::int64_t>(rng() % 8192) - 4096;
            return anchor + static_cast<std::uint64_t>(jitter);
        };
        const std::uint64_t dst = pick(anchors[rng() % std::size(anchors)]);
        const std::uint64_t src = (rng() % 4 == 0) ? dst + (rng() % 64) - 32
                                                   : pick(anchors[rng() % std::size(anchors)]);
        both(dst, src, lens[rng() % std::size(lens)]);
    }
    return cases;
}

TEST(native_stub, span_wise_stubs_match_byte_loop_when_called_directly) {
    const fixture fast{false};
    const fixture ref{true};
    std::size_t faults = 0;
    for (const auto& c : sweep()) {
        auto a = fast.pristine;
        auto b = ref.pristine;
        const auto fault_a = call_direct(a, c, false);
        const auto fault_b = call_direct(b, c, true);
        EXPECT_EQ(fault_a, fault_b) << describe(c);
        expect_same_state(a, b, describe(c));
        faults += fault_a.has_value();
    }
    // The sweep must exercise both the fault path and the success path.
    EXPECT_GT(faults, 20u);
}

TEST(native_stub, span_wise_stubs_match_byte_loop_through_a_guest_call) {
    const fixture fast{false};
    const fixture ref{true};
    std::size_t segfaults = 0;
    for (const auto& c : sweep()) {
        auto a = fast.pristine;
        auto b = ref.pristine;
        const auto ra = call_guest(a, fast, c);
        const auto rb = call_guest(b, ref, c);
        EXPECT_EQ(ra.status, rb.status) << describe(c);
        EXPECT_EQ(ra.trap, rb.trap) << describe(c);
        EXPECT_EQ(ra.fault_addr, rb.fault_addr) << describe(c);
        EXPECT_EQ(ra.exit_code, rb.exit_code) << describe(c);
        expect_same_state(a, b, describe(c));
        segfaults += ra.trap == vm::trap_kind::segfault;
    }
    EXPECT_GT(segfaults, 20u);
}

TEST(native_stub, forward_overlap_replicates_the_source_pattern) {
    // memcpy(p + 1, p, n) is a byte-replicating fill under the forward
    // byte loop; a host memmove would shift the bytes instead.
    const fixture fx{false};
    auto m = fx.pristine;
    const std::uint64_t p = vm::default_globals_base + 0x100;
    const std::uint8_t first = m.mem().load8(p);
    (void)call_direct(m, {stub::memcpy, p + 1, p, 32}, false);
    for (std::uint64_t i = 0; i <= 32; ++i) EXPECT_EQ(m.mem().load8(p + i), first) << i;
}

}  // namespace
}  // namespace pssp
