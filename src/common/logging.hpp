// Minimal leveled logging, instance-confined.
//
// There is deliberately no global logger: a `Logger` is owned by whoever
// owns the run (a bench harness, an example's main(), a test) and threaded
// through the simulation context as a nullable pointer — the same ownership
// pattern as `obs::Recorder*`; `core::ClusterConfig::logger` is where a run
// hands it in.  This keeps concurrent runs byte-independent:
// N simulations on N threads each write to their own logger/sink with no
// shared mutable state and no synchronization.
//
// Logs are off by default (benches and tests run silently); examples turn
// them on to narrate protocol steps.  Output goes through a settable sink
// (stderr by default) so tests can capture and assert on it.
#pragma once

#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <utility>

namespace rbft {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
public:
    using Sink = std::function<void(LogLevel, std::string_view component, std::string_view message)>;

    void set_level(LogLevel level) noexcept { level_ = level; }
    [[nodiscard]] LogLevel level() const noexcept { return level_; }

    /// True iff a message at `level` would be emitted.  kOff is a
    /// threshold, never a message level: logging *at* kOff is always
    /// discarded, and a logger set to kOff emits nothing.
    [[nodiscard]] bool enabled(LogLevel level) const noexcept {
        return level != LogLevel::kOff && level_ != LogLevel::kOff && level >= level_;
    }

    /// Routes output through `sink` instead of stderr; pass nullptr to
    /// restore the default.
    void set_sink(Sink sink) { sink_ = std::move(sink); }

    void log(LogLevel level, std::string_view component, std::string_view message) {
        if (!enabled(level)) return;
        if (sink_) {
            sink_(level, component, message);
            return;
        }
        std::fprintf(stderr, "[%s] %.*s: %.*s\n", name(level),
                     static_cast<int>(component.size()), component.data(),
                     static_cast<int>(message.size()), message.data());
    }

    static const char* name(LogLevel level) noexcept {
        switch (level) {
            case LogLevel::kTrace: return "TRACE";
            case LogLevel::kDebug: return "DEBUG";
            case LogLevel::kInfo: return "INFO ";
            case LogLevel::kWarn: return "WARN ";
            case LogLevel::kError: return "ERROR";
            case LogLevel::kOff: return "OFF  ";
        }
        return "?";
    }

private:
    LogLevel level_ = LogLevel::kOff;
    Sink sink_;
};

/// Null-safe helpers for the threaded `Logger*`: a null logger (the
/// default everywhere) means logging is disabled and the call is one
/// pointer test.
inline void log_info(Logger* logger, std::string_view component, const std::string& message) {
    if (logger) logger->log(LogLevel::kInfo, component, message);
}
inline void log_debug(Logger* logger, std::string_view component, const std::string& message) {
    if (logger) logger->log(LogLevel::kDebug, component, message);
}
inline void log_warn(Logger* logger, std::string_view component, const std::string& message) {
    if (logger) logger->log(LogLevel::kWarn, component, message);
}

}  // namespace rbft
