#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>

namespace perfbench {

Quantile Percentile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double rank = std::clamp(q, 0.0, 1.0) * (samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || std::isinf(samples[hi])) {
    out.value = frac == 0.0 ? samples[lo] : samples[hi];
  } else {
    out.value = samples[lo] + frac * (samples[hi] - samples[lo]);
  }
  out.beyond = static_cast<size_t>(
      samples.end() -
      std::upper_bound(samples.begin(), samples.end(), out.value));
  return out;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5).value;
}

std::string LayerOf(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

Attribution AttributeSelfTime(const std::vector<Span>& spans,
                              uint64_t wall_start_ns, uint64_t wall_end_ns) {
  Attribution out;
  if (wall_end_ns <= wall_start_ns) return out;
  out.wall_s = (wall_end_ns - wall_start_ns) * 1e-9;

  std::vector<int> depth(spans.size(), -1);
  for (size_t i = 0; i < spans.size(); ++i) {
    int d = 0;
    for (int p = spans[i].parent; p >= 0 && d <= static_cast<int>(spans.size());
         p = spans[p].parent) {
      ++d;
    }
    depth[i] = d;
  }

  // (time, +1 open / -1 close, span index)
  std::vector<std::tuple<uint64_t, int, size_t>> events;
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t s = std::max(spans[i].start_ns, wall_start_ns);
    const uint64_t e = std::min(spans[i].end_ns, wall_end_ns);
    if (s >= e) continue;
    events.emplace_back(s, 1, i);
    events.emplace_back(e, -1, i);
  }
  std::sort(events.begin(), events.end());

  // Owner of the time after the current instant: the largest key.
  std::set<std::tuple<int, uint64_t, size_t>> active;
  uint64_t cursor = wall_start_ns;
  auto charge = [&](uint64_t until) {
    if (until <= cursor) return;
    const double dt = (until - cursor) * 1e-9;
    if (active.empty()) {
      out.unattributed_s += dt;
    } else {
      out.self_s[LayerOf(spans[std::get<2>(*active.rbegin())].name)] += dt;
    }
    cursor = until;
  };
  for (const auto& [t, kind, i] : events) {
    charge(t);
    const auto key = std::make_tuple(depth[i], spans[i].start_ns, i);
    if (kind > 0) {
      active.insert(key);
    } else {
      active.erase(key);
    }
  }
  charge(wall_end_ns);
  return out;
}

int SpanRecorder::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                      int parent, uint64_t request_id, int lane) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request_id, lane});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanRecorder::Begin(const char* name, int parent, uint64_t request_id,
                        int lane) {
  if (!enabled_) return -1;
  const uint64_t now = NowNs();
  return Add(name, now, now, parent, request_id, lane);
}

void SpanRecorder::End(int index) {
  if (!enabled_ || index < 0) return;
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[index].end_ns = now;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::string ToChromeJson(const std::vector<Span>& all) {
  uint64_t origin = ~uint64_t{0};
  for (const Span& s : all) origin = std::min(origin, s.start_ns);
  std::string out = "{\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"request\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), LayerOf(s.name).c_str(),
                  s.lane, (s.start_ns - origin) * 1e-3,
                  (s.end_ns - s.start_ns) * 1e-3, i, s.parent,
                  static_cast<unsigned long long>(s.request_id));
    out += buf;
  }
  out += "]}\n";
  return out;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int SelectMaxRateRung(const std::vector<Rung>& rungs, double p99_limit_ms) {
  int best = -1;
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (rungs[i].backlog_growing || !(rungs[i].p99_ms <= p99_limit_ms)) break;
    best = static_cast<int>(i);
  }
  return best;
}

bool BacklogGrowing(const std::vector<size_t>& outstanding, double slack) {
  const size_t quarter = outstanding.size() / 4;
  if (quarter == 0) return false;
  double first = 0.0;
  double last = 0.0;
  for (size_t i = 0; i < quarter; ++i) {
    first += static_cast<double>(outstanding[i]);
    last += static_cast<double>(outstanding[outstanding.size() - 1 - i]);
  }
  return last / quarter > 2.0 * (first / quarter) + slack;
}

}  // namespace perfbench
