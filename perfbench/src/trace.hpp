// In-memory span recorder for the traced run.
//
// The benchmark records a span around each call it makes into a
// library layer (the library itself is not instrumented).  A span
// holds its name, start, end, its parent span and the id of the op it
// belongs to; spans stay in memory until write() dumps them as JSON
// when the run ends.  When tracing is off every call is a cheap
// branch, so the end-to-end run measures the library alone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t op = -1;  ///< op id shared by one op's spans, -1 = none
  int parent = -1;       ///< index of the enclosing span, -1 = root
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  static Tracer& get();

  void enable(Clock::time_point origin);
  bool enabled() const { return enabled_; }

  /// Open a span nested in the innermost open span; returns its index.
  int open(std::string name, std::int64_t op);
  void close(int index);

  /// Record an already-finished span (requests that overlap each
  /// other, so they cannot nest on the open-span stack).
  void record(std::string name, std::int64_t op, Clock::time_point start,
              Clock::time_point end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Write every span as JSON to `path`; false when the file cannot
  /// be written.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on destruction.  A no-op
/// when tracing is off.
class Scope {
 public:
  Scope(const char* name, std::int64_t op = -1);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int index_ = -1;
};

}  // namespace perfbench
