// Clocks, seeded draws, fingerprints and JSON output for the harness.
#include <sys/resource.h>
#include <time.h>

#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "ppatc/runtime/parallel.hpp"

namespace perfbench {

namespace {
double timespec_ns(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) * 1e9 + static_cast<double>(ts.tv_nsec);
}
double timeval_ns(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e9 + static_cast<double>(tv.tv_usec) * 1e3;
}
}  // namespace

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return timespec_ns(ts);
}

double process_cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return timeval_ns(ru.ru_utime) + timeval_ns(ru.ru_stime);
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return ppatc::runtime::splitmix64(state_);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::index(std::size_t n) { return static_cast<std::size_t>(next() % n); }

void Fingerprint::add(std::uint64_t v) { h_ = ppatc::runtime::splitmix64(h_ ^ v); }

void Fingerprint::add(std::string_view s) {
  for (const char c : s) add(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  add(static_cast<std::uint64_t>(s.size()));
}

std::unordered_set<std::uint64_t>& harness_span_ids() {
  static std::unordered_set<std::uint64_t> ids;
  return ids;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void json_append(std::string& open, const std::string& item) {
  if (open.size() > 1) open += ',';
  open += item;
}

JsonObject& JsonObject::num(const std::string& key, double v) {
  char buf[40];
  if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  } else {
    std::snprintf(buf, sizeof buf, "null");
  }
  return raw(key, buf);
}

JsonObject& JsonObject::str(const std::string& key, const std::string& v) {
  return raw(key, json_string(v));
}

JsonObject& JsonObject::raw(const std::string& key, std::string json) {
  fields_.emplace_back(key, std::move(json));
  return *this;
}

std::string JsonObject::dump() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ",";
    out += json_string(fields_[i].first) + ":" + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
