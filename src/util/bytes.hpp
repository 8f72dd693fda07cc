// Little-endian byte packing helpers shared by the VM, the canary schemes,
// and the binary rewriter. The whole simulated platform is little-endian,
// matching x86-64 where the paper's byte-by-byte attack guesses the canary
// starting from its lowest-addressed (least significant) byte.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace pssp::util {

// Reads a little-endian u16/u32/u64 from `bytes` (must be large enough).
// Defined here so every guest load and store in the interpreter inlines
// to a single host access (GCC and Clang fold the shift-or loops).
[[nodiscard]] inline std::uint16_t load_le16(std::span<const std::uint8_t> bytes) {
    assert(bytes.size() >= 2);
    return static_cast<std::uint16_t>(bytes[0] | (std::uint16_t{bytes[1]} << 8));
}

[[nodiscard]] inline std::uint32_t load_le32(std::span<const std::uint8_t> bytes) {
    assert(bytes.size() >= 4);
    std::uint32_t v = 0;
    for (unsigned i = 0; i < 4; ++i) v |= std::uint32_t{bytes[i]} << (8 * i);
    return v;
}

[[nodiscard]] inline std::uint64_t load_le64(std::span<const std::uint8_t> bytes) {
    assert(bytes.size() >= 8);
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= std::uint64_t{bytes[i]} << (8 * i);
    return v;
}

// Writes a little-endian u16/u32/u64 into `bytes` (must be large enough).
inline void store_le16(std::span<std::uint8_t> bytes, std::uint16_t value) {
    assert(bytes.size() >= 2);
    bytes[0] = static_cast<std::uint8_t>(value);
    bytes[1] = static_cast<std::uint8_t>(value >> 8);
}

inline void store_le32(std::span<std::uint8_t> bytes, std::uint32_t value) {
    assert(bytes.size() >= 4);
    for (unsigned i = 0; i < 4; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

inline void store_le64(std::span<std::uint8_t> bytes, std::uint64_t value) {
    assert(bytes.size() >= 8);
    for (unsigned i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

// Extracts byte `index` (0 = least significant) of `value`.
[[nodiscard]] constexpr std::uint8_t byte_of(std::uint64_t value, unsigned index) noexcept {
    return static_cast<std::uint8_t>(value >> (8 * index));
}

// Replaces byte `index` (0 = least significant) of `value` with `byte`.
[[nodiscard]] constexpr std::uint64_t with_byte(std::uint64_t value, unsigned index,
                                                std::uint8_t byte) noexcept {
    const std::uint64_t mask = ~(std::uint64_t{0xff} << (8 * index));
    return (value & mask) | (std::uint64_t{byte} << (8 * index));
}

// FNV-1a 64 over a byte string. The integrity hash used by the dist wire
// spec digest and the checkpoint log's per-line guards: not cryptographic,
// but a single flipped character (even one hexfloat mantissa digit) always
// changes it, which is exactly what "fail loudly, never merge corruption"
// needs.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view text) noexcept {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

// Fixed-width 16-digit lowercase hex of a 64-bit word, appended without a
// prefix — the integrity-hash wire form shared by the dist checkpoint log
// and the store ingest log ("{...,\"fnv\":\"<16hex>\"}").
void append_hex16(std::string& out, std::uint64_t value);

// Parses exactly 16 lowercase hex digits; false on any other input.
[[nodiscard]] bool parse_hex16(std::string_view text, std::uint64_t& value);

// Hex string of a byte span, e.g. "de ad be ef".
[[nodiscard]] std::string to_hex(std::span<const std::uint8_t> bytes);

// Hex string of a 64-bit word, e.g. "0x00007ffc9a3b1c28".
[[nodiscard]] std::string hex64(std::uint64_t value);

// Multi-line hex dump with addresses, 16 bytes per line, starting at `base`.
[[nodiscard]] std::string hex_dump(std::span<const std::uint8_t> bytes,
                                   std::uint64_t base = 0);

}  // namespace pssp::util
