#include "util/bytes.hpp"

#include <cstdio>

namespace pssp::util {

void append_hex16(std::string& out, std::uint64_t value) {
    static const char digits[] = "0123456789abcdef";
    for (int shift = 60; shift >= 0; shift -= 4) {
        out.push_back(digits[(value >> shift) & 0xf]);
    }
}

bool parse_hex16(std::string_view text, std::uint64_t& value) {
    if (text.size() != 16) return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        v <<= 4;
        if (c >= '0' && c <= '9') {
            v |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            v |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            return false;
        }
    }
    value = v;
    return true;
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
    std::string out;
    out.reserve(bytes.size() * 3);
    char buf[4];
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%02x", bytes[i]);
        if (i != 0) out.push_back(' ');
        out += buf;
    }
    return out;
}

std::string hex64(std::uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(value));
    return buf;
}

std::string hex_dump(std::span<const std::uint8_t> bytes, std::uint64_t base) {
    std::string out;
    char buf[32];
    for (std::size_t offset = 0; offset < bytes.size(); offset += 16) {
        std::snprintf(buf, sizeof buf, "%012llx  ",
                      static_cast<unsigned long long>(base + offset));
        out += buf;
        for (std::size_t i = offset; i < offset + 16 && i < bytes.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%02x ", bytes[i]);
            out += buf;
        }
        out.push_back('\n');
    }
    return out;
}

}  // namespace pssp::util
