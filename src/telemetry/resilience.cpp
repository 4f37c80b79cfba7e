#include "telemetry/resilience.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace capgpu::telemetry {

namespace {
thread_local ResilienceRegistry* t_current_resilience_registry = nullptr;

// Same shortest-stable rendering as the SLO report, so bytes stay
// deterministic across platforms.
std::string render_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

ResilienceRegistry& ResilienceRegistry::global() {
  static ResilienceRegistry registry;
  return registry;
}

ResilienceRegistry& ResilienceRegistry::current() {
  return t_current_resilience_registry ? *t_current_resilience_registry
                                       : global();
}

ResilienceRegistry::ScopedCurrent::ScopedCurrent(ResilienceRegistry& registry)
    : previous_(t_current_resilience_registry) {
  t_current_resilience_registry = &registry;
}

ResilienceRegistry::ScopedCurrent::~ScopedCurrent() {
  t_current_resilience_registry = previous_;
}

void ResilienceRegistry::add(ResilienceEntry entry) {
  entries_.push_back(std::move(entry));
}

void ResilienceRegistry::merge_from(const ResilienceRegistry& other,
                                    int pid_offset) {
  for (ResilienceEntry entry : other.entries_) {
    entry.pid += pid_offset;
    entries_.push_back(std::move(entry));
  }
}

void write_resilience_report(const ResilienceRegistry& registry,
                             std::ostream& out) {
  out << "{\n  \"campaigns\": [";
  bool first = true;
  for (const ResilienceEntry& e : registry.entries()) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << "{\"pid\":" << e.pid << ",\"campaign\":\""
        << json_escape(e.campaign) << "\",\"variant\":\""
        << json_escape(e.variant) << "\",\"stage\":\"" << json_escape(e.stage)
        << "\",\"fault_kind\":\"" << json_escape(e.fault_kind)
        << "\",\"domain\":\"" << json_escape(e.domain)
        << "\",\"fault_start_s\":" << render_number(e.fault_start_s)
        << ",\"fault_end_s\":" << render_number(e.fault_end_s)
        << ",\"detected_at_s\":" << render_number(e.detected_at_s)
        << ",\"recovered_at_s\":" << render_number(e.recovered_at_s)
        << ",\"mttr_s\":" << render_number(e.mttr_s)
        << ",\"slo_burn_during\":" << render_number(e.slo_burn_during)
        << ",\"slo_burn_after\":" << render_number(e.slo_burn_after)
        << ",\"recovery_overshoot_w\":" << render_number(e.recovery_overshoot_w)
        << ",\"failsafe_dwell_s\":" << render_number(e.failsafe_dwell_s)
        << ",\"failsafe_entries\":" << e.failsafe_entries
        << ",\"health_transitions\":" << e.health_transitions << '}';
  }
  out << "\n  ]\n}\n";
}

std::string to_resilience_report(const ResilienceRegistry& registry) {
  std::ostringstream out;
  write_resilience_report(registry, out);
  return out.str();
}

void save_resilience_report(const ResilienceRegistry& registry,
                            const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw Error("cannot write resilience report file: " + path);
  write_resilience_report(registry, out);
}

}  // namespace capgpu::telemetry
