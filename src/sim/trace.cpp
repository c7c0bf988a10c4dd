#include "sim/trace.hpp"

#include <sstream>

namespace tw::sim {

const char* trace_kind_name(TraceKind k) {
  switch (k) {
    case TraceKind::node_started: return "node_started";
    case TraceKind::group_created: return "group_created";
    case TraceKind::view_installed: return "view_installed";
    case TraceKind::decider_assumed: return "decider_assumed";
    case TraceKind::decision_sent: return "decision_sent";
    case TraceKind::suspicion: return "suspicion";
    case TraceKind::state_changed: return "state_changed";
    case TraceKind::delivered: return "delivered";
    case TraceKind::joined: return "joined";
    case TraceKind::excluded: return "excluded";
    case TraceKind::clock_sync_lost: return "clock_sync_lost";
    case TraceKind::clock_sync_regained: return "clock_sync_regained";
    case TraceKind::proposal_sent: return "proposal_sent";
    case TraceKind::custom: return "custom";
  }
  return "?";
}

std::vector<TraceRecord> TraceLog::of_kind(TraceKind k) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_)
    if (r.kind == k) out.push_back(r);
  return out;
}

std::vector<TraceRecord> TraceLog::of_kind(TraceKind k, ProcessId p) const {
  std::vector<TraceRecord> out;
  for (const auto& r : records_)
    if (r.kind == k && r.p == p) out.push_back(r);
  return out;
}

SimTime TraceLog::first_after(TraceKind k, SimTime after) const {
  for (const auto& r : records_)
    if (r.kind == k && r.t >= after) return r.t;
  return kNever;
}

std::string TraceLog::dump() const {
  std::ostringstream os;
  for (const auto& r : records_) {
    os << r.t << " p" << r.p << ' ' << trace_kind_name(r.kind) << " a=" << r.a
       << " b=" << r.b;
    if (!r.set.empty()) os << " set=" << r.set.to_string();
    if (!r.note.empty()) os << " note=" << r.note;
    os << '\n';
  }
  return os.str();
}

}  // namespace tw::sim
