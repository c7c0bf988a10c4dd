#include "obs/trace.hpp"

#include <array>
#include <charconv>
#include <ostream>
#include <sstream>

namespace tw::obs {

namespace {

constexpr std::array<const char*, 25> kEvKindNames = {
    "dgram_send",   "dgram_recv",  "dgram_drop",        "timer_arm",
    "timer_fire",   "timer_cancel", "post_wake",        "clock_round",
    "clock_sync_lost", "clock_sync_gained", "bcast_order", "bcast_deliver",
    "fsm_transition", "view_install", "suspect",        "node_start",
    "store_open",   "rejoin_request", "rehabilitated",  "epoch_fence",
    "oal_quarantined", "rejoin_retry", "round_drop",    "overload_enter",
    "overload_exit",
};

constexpr std::array<const char*, 10> kDropReasonNames = {
    "crc",       "runt",     "crashed", "?",        "send_fail",
    "recv_err",  "loss",     "link",    "rule",     "backpressure",
};

}  // namespace

const char* ev_kind_name(EvKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kEvKindNames.size() ? kEvKindNames[i] : "?";
}

const char* drop_reason_name(DropReason r) {
  const auto i = static_cast<std::size_t>(r);
  return i < kDropReasonNames.size() ? kDropReasonNames[i] : "?";
}

bool ev_kind_from_name(std::string_view name, EvKind& out) {
  for (std::size_t i = 0; i < kEvKindNames.size(); ++i) {
    if (name == kEvKindNames[i]) {
      out = static_cast<EvKind>(i);
      return true;
    }
  }
  return false;
}

TraceRing::TraceRing(std::size_t capacity) {
  buf_.resize(capacity == 0 ? 1 : capacity);
}

void TraceRing::emit(const Event& e) {
  buf_[next_] = e;
  next_ = (next_ + 1) % buf_.size();
  ++emitted_;
}

std::size_t TraceRing::size() const {
  return emitted_ < buf_.size() ? static_cast<std::size_t>(emitted_)
                                : buf_.size();
}

std::vector<Event> TraceRing::snapshot() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest record sits at next_ once the ring has wrapped, else at 0.
  const std::size_t start = emitted_ < buf_.size() ? 0 : next_;
  for (std::size_t i = 0; i < n; ++i)
    out.push_back(buf_[(start + i) % buf_.size()]);
  return out;
}

void TraceRing::clear() {
  next_ = 0;
  emitted_ = 0;
}

// --- JSONL -----------------------------------------------------------------

std::string to_json(const Event& e) {
  std::string s;
  s.reserve(96);
  s += "{\"t\":";
  s += std::to_string(e.t);
  s += ",\"off\":";
  s += std::to_string(e.off);
  s += ",\"p\":";
  s += std::to_string(e.p);
  s += ",\"k\":\"";
  s += ev_kind_name(e.kind);
  s += "\",\"arg\":";
  s += std::to_string(e.arg);
  s += ",\"a\":";
  s += std::to_string(e.a);
  s += ",\"b\":";
  s += std::to_string(e.b);
  s += "}";
  return s;
}

void write_jsonl(std::ostream& os, const std::vector<Event>& events) {
  for (const Event& e : events) os << to_json(e) << '\n';
}

std::string to_jsonl(const std::vector<Event>& events) {
  std::ostringstream os;
  write_jsonl(os, events);
  return os.str();
}

namespace {

/// Find `"key":` in `line` and return the value text following it (up to
/// the next ',' or '}'), or an empty view if absent.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pat = "\"";
  pat += key;
  pat += "\":";
  const auto pos = line.find(pat);
  if (pos == std::string_view::npos) return {};
  std::string_view rest = line.substr(pos + pat.size());
  std::size_t end = 0;
  if (!rest.empty() && rest[0] == '"') {  // string value
    const auto close = rest.find('"', 1);
    if (close == std::string_view::npos) return {};
    return rest.substr(1, close - 1);
  }
  while (end < rest.size() && rest[end] != ',' && rest[end] != '}') ++end;
  return rest.substr(0, end);
}

template <typename T>
bool parse_num(std::string_view text, T& out) {
  if (text.empty()) return false;
  const auto* first = text.data();
  const auto* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last;
}

}  // namespace

bool from_json(std::string_view line, Event& out) {
  Event e;
  if (!parse_num(field(line, "t"), e.t)) return false;
  if (!parse_num(field(line, "p"), e.p)) return false;
  if (!ev_kind_from_name(field(line, "k"), e.kind)) return false;
  // off/arg/a/b default to 0 when absent (forward compatibility).
  parse_num(field(line, "off"), e.off);
  parse_num(field(line, "arg"), e.arg);
  parse_num(field(line, "a"), e.a);
  parse_num(field(line, "b"), e.b);
  out = e;
  return true;
}

bool parse_jsonl(std::string_view text, std::vector<Event>& out) {
  std::size_t start = 0;
  bool ok = true;
  while (start <= text.size()) {
    auto end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    const std::string_view line = text.substr(start, end - start);
    if (!line.empty() && line.find_first_not_of(" \t\r") !=
                             std::string_view::npos) {
      Event e;
      if (from_json(line, e))
        out.push_back(e);
      else
        ok = false;
    }
    if (end == text.size()) break;
    start = end + 1;
  }
  return ok;
}

}  // namespace tw::obs
