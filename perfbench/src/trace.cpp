#include "trace.hpp"

#include <cstdio>
#include <fstream>

namespace perfbench {

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(Clock::time_point origin) {
  enabled_ = true;
  origin_ = origin;
}

int Tracer::open(std::string name, std::int64_t op) {
  const int parent = open_.empty() ? -1 : open_.back();
  if (op < 0 && parent >= 0) op = spans_[static_cast<std::size_t>(parent)].op;
  spans_.push_back({std::move(name), op, parent, Clock::now(), {}});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::record(std::string name, std::int64_t op, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), op, parent, start, end});
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  out << "{\"clock\": \"steady_clock\", \"unit\": \"us\", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"op\": %lld, \"parent\": %d, "
                  "\"start\": %.3f, \"end\": %.3f}%s\n",
                  i, s.name.c_str(), static_cast<long long>(s.op), s.parent,
                  us(s.start), us(s.end), i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

Scope::Scope(const char* name, std::int64_t op) {
  Tracer& t = Tracer::get();
  if (t.enabled()) index_ = t.open(name, op);
}

Scope::~Scope() {
  if (index_ >= 0) Tracer::get().close(index_);
}

}  // namespace perfbench
