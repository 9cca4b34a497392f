#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <map>
#include <memory_resource>
#include <sstream>
#include <unistd.h>

namespace perfbench {
namespace {

std::string proc_path(int pid, const char* leaf) {
    return pid == 0 ? std::string("/proc/self/") + leaf
                    : "/proc/" + std::to_string(pid) + "/" + leaf;
}

/// Value of a "Key:   123 kB" line in /proc/<pid>/status, MiB (0 if absent).
double status_kb_field(int pid, const std::string& key) {
    std::ifstream in(proc_path(pid, "status"));
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(key + ":", 0) == 0) {
            return std::strtod(line.c_str() + key.size() + 1, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

void json_string(std::ostream& os, const std::string& s) {
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\') {
            os << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            os << ' ';
        } else {
            os << c;
        }
    }
    os << '"';
}

void json_number(std::ostream& os, double v) {
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    os << buf;
}

}  // namespace

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
}

std::uint64_t process_cpu_ns() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
}

double peak_rss_mb(int pid) { return status_kb_field(pid, "VmHWM"); }

double current_rss_mb(int pid) { return status_kb_field(pid, "VmRSS"); }

std::uint64_t pid_cpu_ns(int pid) {
    {
        std::ifstream in(proc_path(pid, "schedstat"));
        std::uint64_t run_ns = 0;
        if (in >> run_ns) return run_ns;
    }
    std::ifstream in(proc_path(pid, "stat"));
    std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const auto close = text.rfind(')');
    if (close == std::string::npos) return 0;
    std::istringstream fields(text.substr(close + 2));
    std::string field;
    std::uint64_t utime = 0, stime = 0;
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    for (int index = 3; index <= 15 && fields >> field; ++index) {
        if (index == 14) utime = std::stoull(field);
        if (index == 15) stime = std::stoull(field);
    }
    const auto hz = static_cast<std::uint64_t>(sysconf(_SC_CLK_TCK));
    return (utime + stime) * (1000000000ULL / (hz ? hz : 100));
}

namespace {

/// The reference kernel's memory: a fixed buffer owned by the benchmark,
/// so the kernel never touches the program's heap.
std::vector<std::byte>& ref_buffer() {
    static std::vector<std::byte> buffer(std::size_t{1} << 20);
    return buffer;
}

/// Ordered-map churn (20 000 inserts into a map capped at 4 000 entries)
/// with every node allocated from ref_buffer().
std::uint64_t map_churn() {
    std::vector<std::byte>& buffer = ref_buffer();
    std::pmr::monotonic_buffer_resource arena(buffer.data(), buffer.size(),
                                              std::pmr::null_memory_resource());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::map<std::uint64_t, std::uint64_t> m(&pool);
    std::uint64_t x = 12345;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        m[x >> 50] += x;
        if (m.size() > 4000) m.erase(m.begin());
    }
    return m.begin()->second;
}

}  // namespace

double host_ref_s() {
    // The first pass brings the buffer back into cache after whatever ran
    // before and is not timed, so the timed pass does not depend on the
    // program's cache or heap state.
    std::uint64_t sink = map_churn();
    const std::uint64_t start = now_ns();
    sink += map_churn();
    const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
    static volatile std::uint64_t keep = 0;
    keep = keep + sink;
    return elapsed;
}

std::uint32_t Spans::open(std::string name) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.start_ns = now_ns();
    spans_.push_back(std::move(span));
    const auto id = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(id);
    return id;
}

void Spans::close(std::uint32_t id) {
    spans_[id - 1].end_ns = now_ns();
    if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Spans::write(const std::string& path) const {
    std::ofstream out(path, std::ios::out | std::ios::trunc);
    if (!out) return false;
    out << "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "  {\"id\": " << i + 1 << ", \"parent\": " << s.parent << ", \"name\": ";
        json_string(out, s.name);
        out << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
    if (sorted.empty()) return 0.0;
    const double rank = std::ceil(q * static_cast<double>(sorted.size()));
    const auto index = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

void Report::print() const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        os << (first ? "" : ", ");
        first = false;
        json_string(os, name);
        os << ": {\"value\": ";
        json_number(os, m.value);
        os << ", \"unit\": ";
        json_string(os, m.unit);
        os << ", \"samples\": " << m.samples << "}";
    }
    os << "}, \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i) {
        os << (i ? ", " : "");
        json_string(os, problems[i]);
    }
    os << "], \"notes\": [";
    for (std::size_t i = 0; i < notes.size(); ++i) {
        os << (i ? ", " : "");
        json_string(os, notes[i]);
    }
    os << "]}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
}

}  // namespace perfbench
