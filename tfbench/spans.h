/// \file spans.h
/// \brief In-memory span recorder for the benchmark's traced run.
///
/// Spans are opened only in the benchmark's own code, around its calls into
/// the library's public functions; nothing inside the library is touched.
/// Each span carries a name, start and end (steady clock, ns since the
/// recorder's epoch), the id of the span that was open on the same thread
/// when it started (0: a root), and a request id shared by every span of
/// one operation. Spans are kept in memory and written out once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace tfbench {

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanRecorder {
 public:
  static SpanRecorder& global() {
    static SpanRecorder recorder;
    return recorder;
  }

  bool enabled() const { return enabled_; }
  void enable() { enabled_ = true; }

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  std::uint64_t next_id() {
    std::lock_guard<std::mutex> lock(mutex_);
    return ++last_id_;
  }

  void add(const SpanRecord& span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(span);
  }

  std::vector<SpanRecord> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::uint64_t last_id_ = 0;
  std::vector<SpanRecord> spans_;
};

/// Scoped span. Nests under the span open on the calling thread and
/// inherits its request id unless \p request is given. A no-op (two branch
/// tests) when the recorder is disabled, so untimed code paths match.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0) {
    auto& rec = SpanRecorder::global();
    if (!rec.enabled()) return;
    active_ = true;
    record_.id = rec.next_id();
    record_.name = name;
    record_.parent = open_id();
    record_.request = request != 0 ? request : open_request();
    if (record_.request == 0) record_.request = record_.id;
    prev_id_ = open_id();
    prev_request_ = open_request();
    open_id() = record_.id;
    open_request() = record_.request;
    record_.start_ns = rec.now_ns();
  }
  ~Span() {
    if (!active_) return;
    auto& rec = SpanRecorder::global();
    record_.end_ns = rec.now_ns();
    open_id() = prev_id_;
    open_request() = prev_request_;
    rec.add(record_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  static std::uint64_t& open_id() {
    thread_local std::uint64_t id = 0;
    return id;
  }
  static std::uint64_t& open_request() {
    thread_local std::uint64_t request = 0;
    return request;
  }

  bool active_ = false;
  SpanRecord record_;
  std::uint64_t prev_id_ = 0;
  std::uint64_t prev_request_ = 0;
};

}  // namespace tfbench
