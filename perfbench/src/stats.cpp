#include "stats.hpp"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median: no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v, std::size_t min_beyond) {
  if (v.empty()) throw std::invalid_argument("tail: no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t k = n > min_beyond ? n - min_beyond - 1 : n - 1;
  Tail t;
  t.value = v[k];
  t.samples = n;
  t.beyond = n - 1 - k;
  t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  return t;
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
  };
  Usage u;
  u.user_s = secs(ru.ru_utime);
  u.sys_s = secs(ru.ru_stime);
  u.minflt = ru.ru_minflt;
  u.nvcsw = ru.ru_nvcsw;
  u.nivcsw = ru.ru_nivcsw;
  u.max_rss_kb = ru.ru_maxrss;
  return u;
}

Usage& Usage::operator+=(const Usage& d) {
  user_s += d.user_s;
  sys_s += d.sys_s;
  minflt += d.minflt;
  nvcsw += d.nvcsw;
  nivcsw += d.nivcsw;
  max_rss_kb = std::max(max_rss_kb, d.max_rss_kb);
  return *this;
}

Usage operator-(const Usage& after, const Usage& before) {
  Usage d;
  d.user_s = after.user_s - before.user_s;
  d.sys_s = after.sys_s - before.sys_s;
  d.minflt = after.minflt - before.minflt;
  d.nvcsw = after.nvcsw - before.nvcsw;
  d.nivcsw = after.nivcsw - before.nivcsw;
  d.max_rss_kb = after.max_rss_kb;
  return d;
}

std::int64_t steal_ticks() {
  // Kept open: reading from offset 0 regenerates the file.
  static const int fd = ::open("/proc/stat", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1;
  char buf[512];
  const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
  if (n <= 0) return -1;
  buf[n] = '\0';
  // "cpu  user nice system idle iowait irq softirq steal ..."
  long long f[8];
  if (std::sscanf(buf, "cpu %lld %lld %lld %lld %lld %lld %lld %lld", &f[0],
                  &f[1], &f[2], &f[3], &f[4], &f[5], &f[6], &f[7]) != 8) {
    return -1;
  }
  return f[7];
}

}  // namespace perfbench
