#include "trace.hpp"

#include <chrono>
#include <fstream>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

std::uint64_t SpanLog::add(std::string name, int row, double t0, double t1,
                           std::uint64_t parent, std::uint64_t op) {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({std::move(name), row, t0, t1, id, parent, op});
  return id;
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(1e3 * (s.t1 - s.t0));
  }
  return out;
}

bool SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out.precision(17);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.row + 1 << ",\"ts\":" << 1e6 * s.t0
        << ",\"dur\":" << 1e6 * (s.t1 - s.t0) << ",\"args\":{\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
