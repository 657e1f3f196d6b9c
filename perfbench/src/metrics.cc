#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void MetricSet::Set(const std::string& name, const std::string& unit,
                    const std::string& clock, double value,
                    uint64_t samples) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{name, unit, clock, value, samples};
      return;
    }
  }
  metrics_.push_back(Metric{name, unit, clock, value, samples});
}

const Metric* MetricSet::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double MetricSet::Value(const std::string& name) const {
  const Metric* m = Find(name);
  return m != nullptr ? m->value : 0.0;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().host_start_ns;
  // One thread row per layer so the viewer shows the ladder as lanes.
  std::map<std::string, int> tids;
  for (const Span& s : spans_) tids.emplace(s.layer, 0);
  int next = 1;
  for (auto& [layer, tid] : tids) tid = next++;

  fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& [layer, tid] : tids) {
    fprintf(f,
            "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
            first ? "" : ",\n", tid, JsonEscape(layer).c_str());
    first = false;
  }
  for (const Span& s : spans_) {
    const double ts = static_cast<double>(s.host_start_ns - t0) / 1000.0;
    const double dur =
        static_cast<double>(s.host_end_ns - s.host_start_ns) / 1000.0;
    fprintf(f,
            "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
            "\"args\": {\"sim_start_us\": %llu, \"sim_end_us\": %llu}}",
            first ? "" : ",\n", JsonEscape(s.name).c_str(),
            JsonEscape(s.layer).c_str(), ts, dur, tids[s.layer],
            static_cast<unsigned long long>(s.sim_start),
            static_cast<unsigned long long>(s.sim_end));
    first = false;
  }
  fprintf(f, "\n]}\n");
  return fclose(f) == 0;
}

std::vector<Tracer::Rung> Tracer::Rungs() const {
  std::vector<std::pair<std::string, std::string>> order;
  std::map<std::pair<std::string, std::string>,
           std::pair<std::vector<double>, std::vector<double>>>
      samples;
  for (const Span& s : spans_) {
    const auto key = std::make_pair(std::string(s.layer), std::string(s.name));
    auto it = samples.find(key);
    if (it == samples.end()) {
      order.push_back(key);
      it = samples.emplace(key, std::make_pair(std::vector<double>{},
                                               std::vector<double>{}))
               .first;
    }
    it->second.first.push_back(
        static_cast<double>(s.host_end_ns - s.host_start_ns) / 1000.0);
    it->second.second.push_back(static_cast<double>(s.sim_end - s.sim_start));
  }
  std::vector<Rung> rungs;
  for (const auto& key : order) {
    const auto& [host, sim] = samples[key];
    Rung r;
    r.layer = key.first;
    r.name = key.second;
    r.count = host.size();
    r.host_p50_us = Median(host);
    r.host_p99_us = Percentile(host, 99);
    r.sim_p50_us = Median(sim);
    rungs.push_back(r);
  }
  return rungs;
}

}  // namespace perfbench
