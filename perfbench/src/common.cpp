#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "bench.hpp"
#include "trace/workloads.hpp"
#include "validation/scale.hpp"

namespace perfbench {

using namespace esteem;

namespace {

/// Sweep scale of both exhaustive workloads: 2M measured + 0.4M warm-up
/// instructions per core, with the bench tier's interval scaling (x4) and
/// churn damping (validation/scale.hpp), as tools/esteem_bench uses.
validation::ScaleSpec sweep_scale(std::uint64_t seed) {
  validation::ScaleSpec s;
  s.label = "perfbench";
  s.instr_per_core = 2'000'000;
  s.warmup_per_core = 400'000;
  s.seed = seed;
  s.interval_env_factor = 4.0;
  return s;
}

void apply(BenchWorkload& w, const validation::ScaleSpec& scale,
           SystemConfig config, unsigned threads) {
  w.spec.config = std::move(config);
  w.spec.seed = scale.seed;
  w.spec.instr_per_core = scale.instr_per_core;
  w.spec.warmup_instr_per_core = scale.warmup_per_core;
  w.spec.threads = threads;
}

}  // namespace

BenchWorkload make_workload(const std::string& name, std::uint64_t seed) {
  BenchWorkload w;
  w.name = name;
  if (name == "single-sweep") {
    // Figure 3's sweep: all 34 Table 1 single-core workloads, serially.
    const validation::ScaleSpec scale = sweep_scale(seed);
    apply(w, scale, validation::scaled_single(scale), 1);
    w.spec.workloads = trace::single_core_workloads();
    w.spec.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
    w.paper_saving_pct = 25.82;
  } else if (name == "dual-sweep") {
    // Figure 4's sweep: the 17 Table 1 pairs on the dual-core config
    // (8 MB shared L2, 15 GB/s channel), two pool workers.
    const validation::ScaleSpec scale = sweep_scale(seed);
    apply(w, scale, validation::scaled_dual(scale), 2);
    w.spec.workloads = trace::dual_core_workloads();
    w.spec.techniques = {sim::Technique::Esteem, sim::Technique::RefrintRPV};
    w.paper_saving_pct = 32.63;
  } else if (name == "sampled-paper") {
    // Four Figure 3 profiles at the paper's 400M instructions per core with
    // SMARTS sampling (the paper validation tier), serially.
    validation::ScaleSpec scale = validation::paper_scale();
    scale.seed = seed;
    apply(w, scale, validation::scaled_single(scale), 1);
    for (const trace::Workload& wl : trace::single_core_workloads()) {
      const std::string& b = wl.benchmarks.front();
      if (b == "gamess" || b == "h264ref" || b == "omnetpp" || b == "mcf") {
        w.spec.workloads.push_back(wl);
      }
    }
    w.spec.techniques = {sim::Technique::Esteem};
    w.paper_saving_pct = 25.82;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void Digest::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffU;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Digest::str(const std::string& s) {
  u64(s.size());
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string string_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ',';
    out += Json::quote(items[i]);
  }
  return out + "]";
}

std::string Json::quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string Json::number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Json::array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += number(values[i]);
  }
  return out + "]";
}

void Json::key(const std::string& k) {
  if (!body_.empty()) body_ += ',';
  body_ += quote(k) + ":";
}

Json& Json::num(const std::string& k, double v) {
  key(k);
  body_ += number(v);
  return *this;
}

Json& Json::integer(const std::string& k, std::int64_t v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

Json& Json::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

Json& Json::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += quote(v);
  return *this;
}

Json& Json::raw(const std::string& k, const std::string& r) {
  key(k);
  body_ += r;
  return *this;
}

}  // namespace perfbench
