// Shared helpers for the benchmark driver: wall/CPU clocks, the in-memory
// span recorder, order statistics, /proc readers and the result writer.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock (steady_clock), nanoseconds.
[[nodiscard]] std::uint64_t now_ns();
/// CPU time consumed by this process, nanoseconds.
[[nodiscard]] std::uint64_t process_cpu_ns();
/// Peak resident set (VmHWM) of process `pid` (0 = self), MiB.
[[nodiscard]] double peak_rss_mb(int pid = 0);
/// Current resident set of process `pid` (0 = self), MiB.
[[nodiscard]] double current_rss_mb(int pid = 0);
/// CPU time of process `pid` from /proc (schedstat, else stat), ns; 0 if gone.
[[nodiscard]] std::uint64_t pid_cpu_ns(int pid);

/// Wall time of a fixed, benchmark-owned kernel (ordered-map churn whose
/// nodes live in a 1 MiB buffer of the benchmark's own, warmed first), in
/// seconds.  Timed between measurement slices, it tracks how fast the host
/// runs at that moment, independently of the program's heap and cache.
[[nodiscard]] double host_ref_s();
/// The reference kernel time that normalized metrics are rescaled to.
inline constexpr double kHostRefNominalS = 4e-3;

/// Spans kept in memory and written once at the end of the run.  A span
/// names a phase of the benchmark or a call it makes into one layer.
class Spans {
public:
    /// Opens a span under the innermost open one; returns its id.
    std::uint32_t open(std::string name);
    void close(std::uint32_t id);
    /// Writes every span as JSON (name, id, parent, start/end ns).
    bool write(const std::string& path) const;

private:
    struct Span {
        std::string name;
        std::uint32_t parent = 0;
        std::uint64_t start_ns = 0;
        std::uint64_t end_ns = 0;
    };
    std::vector<Span> spans_;          // id = index + 1
    std::vector<std::uint32_t> stack_;
};

/// RAII span; a null recorder records nothing.
class SpanScope {
public:
    SpanScope(Spans* spans, std::string name)
        : spans_(spans), id_(spans ? spans->open(std::move(name)) : 0) {}
    ~SpanScope() {
        if (spans_) spans_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    Spans* spans_;
    std::uint32_t id_;
};

/// Quantile of an ascending-sorted sample (nearest rank, q in [0, 1]).
[[nodiscard]] double quantile_sorted(const std::vector<double>& sorted, double q);
/// Median of an unsorted sample (copied).
[[nodiscard]] double median(std::vector<double> values);

/// One reported metric: value, unit and the number of samples behind it.
struct Metric {
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 1;
};

/// What one benchmark process reports: the run-level counts, whether every
/// output check passed (with the reasons when not), and the metrics.
struct Report {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, Metric> metrics;
    std::vector<std::string> problems;  // failed output checks
    std::vector<std::string> notes;     // observations (collapses, ...)

    void set(const std::string& name, double value, const char* unit, std::uint64_t samples = 1) {
        metrics[name] = Metric{value, unit, samples};
    }
    void fail_check(std::string why) {
        correct = false;
        problems.push_back(std::move(why));
    }
    /// One JSON line on stdout.
    void print() const;
};

}  // namespace perfbench
