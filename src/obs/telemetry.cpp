#include "obs/telemetry.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace pssp::obs {

namespace {

// Retries EINTR and short writes (a short write is possible only against
// a pipe or on ENOSPC); false with errno set on failure.
bool write_fully(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        return false;
    }
    return true;
}

int open_truncated(const std::string& path) {
    int fd = -1;
    while ((fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_APPEND,
                        0644)) < 0 &&
           errno == EINTR) {
    }
    return fd;
}

}  // namespace

telemetry_writer::~telemetry_writer() {
    if (fd_ >= 0 && owned_) ::close(fd_);
}

bool telemetry_writer::open(const std::string& path) {
    if (path == "-") {
        fd_ = 2;  // stderr, unowned
        owned_ = false;
        return true;
    }
    const int fd = open_truncated(path);
    if (fd < 0) {
        std::fprintf(stderr, "telemetry: cannot write %s\n", path.c_str());
        return false;
    }
    struct stat st {};
    fd_ = fd;
    owned_ = true;
    regular_ = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
    path_ = path;
    contents_.clear();
    return true;
}

bool telemetry_writer::append_by_rename(const std::string& line) {
    const std::string tmp = path_ + ".tmp";
    const int fd = open_truncated(tmp);
    if (fd < 0) return false;
    if (!write_fully(fd, contents_) || !write_fully(fd, line) ||
        ::rename(tmp.c_str(), path_.c_str()) != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return false;
    }
    ::close(fd_);
    fd_ = fd;
    return true;
}

void telemetry_writer::append(const round_summary& round) {
    if (fd_ < 0) return;
    auto line = round_summary_json(round);
    line += '\n';
    if (regular_) {
        // Bytes [size, size + len) touch more than one page: appending
        // in place would let a reader see the line cut at the boundary.
        static const auto page =
            static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
        const std::size_t size = contents_.size();
        const bool crosses = size / page != (size + line.size() - 1) / page;
        if (crosses && append_by_rename(line)) {
            contents_ += line;
            return;
        }
        // A failed rename falls back to the in-place append: atomicity is
        // lost for this line, the record is not.
    }
    if (!write_fully(fd_, line)) {
        std::fprintf(stderr, "telemetry: write failed (%s)\n",
                     std::strerror(errno));
        return;
    }
    if (regular_) contents_ += line;
}

std::string round_summary_json(const round_summary& round) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"round\": %llu, \"blocks\": %llu, \"trials\": %llu, "
                  "\"cumulative_trials\": %llu, \"max_halfwidth\": %.6f, "
                  "\"widest_cell\": \"%s\", \"wall_seconds\": %.3f",
                  static_cast<unsigned long long>(round.round),
                  static_cast<unsigned long long>(round.blocks),
                  static_cast<unsigned long long>(round.trials),
                  static_cast<unsigned long long>(round.cumulative_trials),
                  round.max_halfwidth, round.widest_cell.c_str(),
                  round.wall_seconds);
    std::string json = buf;
    if (!round.shards.empty()) {
        json += ", \"shards\": [";
        for (std::size_t i = 0; i < round.shards.size(); ++i) {
            const auto& s = round.shards[i];
            std::snprintf(buf, sizeof buf,
                          "%s{\"shard\": %u, \"wall\": %.3f, \"user\": %.3f, "
                          "\"sys\": %.3f",
                          i == 0 ? "" : ", ", s.shard, s.wall_seconds,
                          s.user_seconds, s.sys_seconds);
            json += buf;
            // Only network campaigns name workers — local lines unchanged.
            if (!s.worker.empty()) json += ", \"worker\": \"" + s.worker + "\"";
            json += "}";
        }
        json += "]";
    }
    if (round.retries != 0 || round.requeued_blocks != 0 ||
        round.timeouts != 0 || round.evictions != 0 || round.reconnects != 0 ||
        round.resumed) {
        std::snprintf(buf, sizeof buf,
                      ", \"recovery\": {\"retries\": %llu, "
                      "\"requeued_blocks\": %llu, \"timeouts\": %llu",
                      static_cast<unsigned long long>(round.retries),
                      static_cast<unsigned long long>(round.requeued_blocks),
                      static_cast<unsigned long long>(round.timeouts));
        json += buf;
        // Network-transport totals appear only when nonzero, keeping every
        // pre-network telemetry line byte-identical.
        if (round.evictions != 0 || round.reconnects != 0) {
            std::snprintf(buf, sizeof buf,
                          ", \"evictions\": %llu, \"reconnects\": %llu",
                          static_cast<unsigned long long>(round.evictions),
                          static_cast<unsigned long long>(round.reconnects));
            json += buf;
        }
        json += std::string{", \"resumed\": "} +
                (round.resumed ? "true" : "false") + "}";
    }
    json += "}";
    return json;
}

}  // namespace pssp::obs
