// udp_steady and sim_steady: an open-loop reference phase (Phase A) and a
// doubling rate ladder (Phase B) on one team.
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sys/stat.h>

#include "bcast/messages.hpp"
#include "net/msg_kind.hpp"
#include "team.hpp"
#include "util/bytes.hpp"

namespace pb {

namespace {

using tw::ProcessId;

constexpr double kReferenceRate = 500.0;
constexpr double kLadderFirst = 250.0;
constexpr double kLadderLast = 32000.0;
constexpr LadderLimits kLimits{};
/// A step's backlog must drain within this after its last due update.
constexpr Micros kDrainBound = 1 * kSec;
/// CPU per update is sampled over slices of at least this much wall time
/// and kSliceUpdates completed updates.
constexpr Micros kCpuSlice = 250 * kMs;
constexpr std::uint64_t kSliceUpdates = 100;
/// Phase A latencies are summarised per window of this much team time (by
/// due time); windows with fewer updates are dropped.
constexpr Micros kWindow = 500 * kMs;
constexpr std::size_t kWindowMin = 200;

/// How long each part of a steady run lasts, in the team's time base.
struct SteadyPlan {
  int setups_per_point = 1;  ///< formations timed after each phase
  int phase_a_teams = 1;     ///< untraced Phase A is split over this many
  Micros settle = 300 * kMs;  ///< after formation, before Phase A
  Micros phase_a = 4 * kSec;
  Micros step = 1 * kSec;
  Micros step_wall_cap = 6 * kSec;
  Micros phase_a_wall_cap = 60 * kSec;
};

SteadyPlan plan_for(bool udp, const RunArgs& a) {
  SteadyPlan p;
  const double s = a.smoke ? 1.0 : a.seconds;
  if (udp) {
    p.setups_per_point = 1;
    p.phase_a_teams = a.smoke ? 1 : 3;
    p.phase_a = static_cast<Micros>(2.0 * s * kSec);
    p.step = std::max<Micros>(500 * kMs, static_cast<Micros>(0.1 * s * kSec));
  } else {
    // Simulated time runs about 50 times faster than wall time at the
    // reference rate; these lengths keep a run's wall time near --seconds.
    p.setups_per_point = a.smoke ? 1 : 10;
    p.phase_a_teams = a.smoke ? 1 : 5;
    p.phase_a = static_cast<Micros>(30.0 * s * kSec);
    p.step = static_cast<Micros>(1.0 * s * kSec);
  }
  p.step_wall_cap = std::min<Micros>(p.step + kDrainBound + 4 * kSec,
                                     20 * kSec);
  return p;
}

/// What one phase (Phase A or one ladder step) produced.
struct PhaseData {
  double rate = 0;
  std::uint64_t g_begin = 0;
  std::uint64_t g_end = 0;
  Micros start = 0;       ///< first due time
  Micros load_end = 0;    ///< last due time
  Micros end = 0;         ///< when the phase was collected
  Micros wall_us = 0;     ///< wall time from start to collection
  Micros cpu_us = 0;      ///< process CPU over the same interval
  /// Process CPU per completed update over consecutive wall-time slices.
  std::vector<double> cpu_slices;
  bool aborted = false;
  bool drained = false;
  bool views_changed = false;  ///< some member installed a new view
  std::vector<MeterData> before;  ///< collection at the phase start
  std::vector<MeterData> members;
  std::array<std::uint64_t, 3> net_errors{0, 0, 0};
};

PhaseData run_phase(Team& team, double rate, Micros duration,
                    Micros drain_bound, Micros wall_cap,
                    std::uint64_t& next_g) {
  PhaseData ph;
  ph.rate = rate;
  ph.g_begin = next_g;
  const auto count = static_cast<std::uint64_t>(
      rate * static_cast<double>(duration) / static_cast<double>(kSec));
  ph.g_end = next_g + count;
  next_g = ph.g_end;

  ph.before = team.collect();
  const std::uint64_t views0 = team.view_changes();
  const auto errors0 = team.net_errors();
  const Micros wall0 = wall_us();
  const Micros cpu0 = process_cpu_us();
  const Micros deadline = wall0 + wall_cap;
  ph.start = team.now() + 1 * kMs;
  team.set_load(ph.start, rate, count, ph.g_begin);
  ph.load_end = count > 0 ? team.due(count - 1) : ph.start;

  // Abort when the backlog outgrows two seconds of offered load.
  const auto backlog_cap =
      static_cast<std::uint64_t>(std::max(2.0 * rate, 1000.0));
  bool aborted = false;
  Micros slice_wall = wall0, slice_cpu = cpu0;
  std::uint64_t slice_done = team.min_delivered();
  auto over_backlog = [&] {
    const std::uint64_t done = team.min_delivered();
    if (team.accepted() > done + backlog_cap) aborted = true;
    const Micros w = wall_us();
    if (w - slice_wall >= kCpuSlice && done >= slice_done + kSliceUpdates) {
      const Micros c = process_cpu_us();
      ph.cpu_slices.push_back(static_cast<double>(c - slice_cpu) /
                              static_cast<double>(done - slice_done));
      slice_wall = w;
      slice_cpu = c;
      slice_done = done;
    }
    return aborted;
  };
  const bool in_time =
      team.advance(ph.load_end + 1, deadline, over_backlog);
  auto drained = [&] { return team.drained(); };
  bool ok = in_time && !aborted;
  if (ok) {
    ok = team.advance(ph.load_end + drain_bound, deadline,
                      [&] { return drained() || over_backlog(); });
  }
  ph.drained = ok && !aborted && drained();
  ph.aborted = !in_time || aborted || !ok;
  ph.end = team.now();
  ph.members = team.collect();
  ph.views_changed = team.view_changes() != views0;
  ph.cpu_us = process_cpu_us() - cpu0;
  ph.wall_us = wall_us() - wall0;
  const auto errors1 = team.net_errors();
  for (std::size_t i = 0; i < 3; ++i)
    ph.net_errors[i] = errors1[i] - errors0[i];
  return ph;
}

/// Output checks and latencies of one phase.
struct PhaseStats {
  std::size_t offered = 0;
  std::size_t accepted = 0;
  std::size_t refused = 0;
  std::size_t complete = 0;  ///< delivered at every member
  std::vector<double> latency_ms;
  std::map<std::uint64_t, const Offer*> offers;  ///< by g
  std::map<std::uint64_t, Micros> last_delivery;  ///< complete updates
  std::vector<std::string> violations;
  std::size_t violating_updates = 0;

  [[nodiscard]] std::size_t failed() const {
    return refused + (accepted - complete);
  }
  [[nodiscard]] double failed_pct() const {
    return offered == 0 ? 0.0
                        : 100.0 * static_cast<double>(failed()) /
                              static_cast<double>(offered);
  }
};

PhaseStats analyze(const PhaseData& ph, int n, bool strict) {
  PhaseStats st;
  // Raw delivery logs agree on order only while the view stays put. In a
  // collapsing ladder step a member can be excluded and re-baselined by a
  // state transfer, and then its raw log may disagree with the others';
  // the stack promises agreement of majority-group histories, not of raw
  // logs. Payload and identity checks hold regardless.
  const bool ordered = !ph.views_changed;
  for (const auto& m : ph.members)
    for (const auto& o : m.offers) st.offers[o.g] = &o;
  st.offered = static_cast<std::size_t>(ph.g_end - ph.g_begin);
  std::set<std::uint64_t> bad;
  auto violate = [&](std::uint64_t g, std::string msg) {
    bad.insert(g);
    if (st.violations.size() < 20) st.violations.push_back(std::move(msg));
  };
  for (std::uint64_t g = ph.g_begin; g < ph.g_end; ++g) {
    const auto it = st.offers.find(g);
    if (it == st.offers.end()) {
      // Never reached try_propose (the phase was cut short).
      ++st.refused;
      continue;
    }
    if (it->second->accepted)
      ++st.accepted;
    else
      ++st.refused;
  }

  std::map<std::uint64_t, tw::Ordinal> ordinal_of;
  std::map<std::uint64_t, std::pair<int, Micros>> seen;  // g -> (members, last)
  for (int p = 0; p < n; ++p) {
    const auto& ds = ph.members[static_cast<std::size_t>(p)].deliveries;
    std::set<std::uint64_t> mine;
    std::map<ProcessId, tw::ProposalSeq> last_seq;
    for (const auto& d : ds) {
      if (d.g < ph.g_begin || d.g >= ph.g_end) continue;
      const std::string where =
          "member " + std::to_string(p) + " update " + std::to_string(d.g);
      if (!d.intact) violate(d.g, where + ": payload corrupted");
      const auto it = st.offers.find(d.g);
      if (it == st.offers.end() || !it->second->accepted) {
        violate(d.g, where + ": delivered but never accepted");
        continue;
      }
      if (!(it->second->pid == d.pid))
        violate(d.g, where + ": delivered under another proposal id");
      const bool first = mine.insert(d.g).second;
      if (ordered) {
        if (!first) violate(d.g, where + ": delivered twice");
        const auto [oi, fresh] = ordinal_of.try_emplace(d.g, d.ordinal);
        if (!fresh && oi->second != d.ordinal)
          violate(d.g, where + ": ordinal disagrees with another member");
        const auto ls = last_seq.find(d.pid.proposer);
        if (ls != last_seq.end() && ls->second >= d.pid.seq)
          violate(d.g, where + ": proposer FIFO order broken");
        last_seq[d.pid.proposer] = d.pid.seq;
      }
      if (!first) continue;
      auto& s = seen[d.g];
      ++s.first;
      s.second = std::max(s.second, d.at);
    }
  }
  for (const auto& [g, s] : seen) {
    if (s.first < n) continue;
    ++st.complete;
    st.last_delivery[g] = s.second;
    st.latency_ms.push_back(static_cast<double>(s.second - st.offers[g]->due) /
                            1000.0);
  }
  if (strict && st.complete < st.accepted)
    violate(UINT64_MAX, std::to_string(st.accepted - st.complete) +
                            " accepted updates not delivered at every member");
  st.violating_updates = bad.size();
  return st;
}

double sum_root_us(const std::vector<MeterData>& ms) {
  double s = 0;
  for (const auto& m : ms) s += m.root_us;
  return s;
}

SpanAgg merged_span(const std::vector<MeterData>& ms, SpanName name) {
  SpanAgg a;
  for (const auto& m : ms) {
    const SpanAgg& x = m.spans[static_cast<std::size_t>(name)];
    a.count += x.count;
    a.self_us += x.self_us;
  }
  return a;
}

/// Time Decision::decode and encode over the decisions a phase captured.
std::pair<double, double> codec_us(const std::vector<MeterData>& ms) {
  std::vector<const std::vector<std::byte>*> all;
  for (const auto& m : ms)
    for (const auto& d : m.captured_decisions) all.push_back(&d);
  if (all.empty()) return {0.0, 0.0};
  constexpr int kRepeat = 20;
  std::vector<tw::bcast::Decision> decoded;
  std::size_t sink = 0;
  const Micros t0 = wall_us();
  for (int r = 0; r < kRepeat; ++r) {
    for (const auto* bytes : all) {
      tw::util::ByteReader rd(std::span<const std::byte>(*bytes).subspan(1));
      auto d = tw::bcast::Decision::decode(rd);
      sink += d.oal.size();
      if (r == 0) decoded.push_back(std::move(d));
    }
  }
  const Micros t1 = wall_us();
  for (int r = 0; r < kRepeat; ++r)
    for (const auto& d : decoded) sink += d.encode().size();
  const Micros t2 = wall_us();
  if (sink == 0) std::fprintf(stderr, "codec timing saw empty decisions\n");
  const double n = static_cast<double>(all.size()) * kRepeat;
  return {static_cast<double>(t1 - t0) / n, static_cast<double>(t2 - t1) / n};
}

/// Per-layer metrics of one traced phase.
void layer_metrics(const PhaseData& ph, const PhaseStats& st, bool udp,
                   Report& out) {
  const auto& ms = ph.members;
  const double updates = static_cast<double>(st.complete);
  const double secs = static_cast<double>(ph.end - ph.start) / 1e6;
  auto set = [&](const std::string& name, double v, const char* unit) {
    out.set(name, v, unit);
  };
  std::uint64_t decode_errors = 0;
  for (const auto& m : ms) decode_errors += m.decode_errors;
  if (decode_errors > 0)
    out.fail(std::to_string(decode_errors) +
             " captured datagrams did not decode with the bcast decoders");

  // gms: admission, batching, ordering.
  std::vector<double> propose_us;
  std::vector<double> batch_ms, order_ms, gate_ms, lat_ms, late_ms;
  std::unordered_map<std::uint64_t, Micros> wire, bound;
  for (const auto& m : ms) {
    for (const auto& [k, t] : m.wire) {
      auto [it, fresh] = wire.try_emplace(k, t);
      if (!fresh) it->second = std::min(it->second, t);
    }
    for (const auto& [k, t] : m.bound) {
      auto [it, fresh] = bound.try_emplace(k, t);
      if (!fresh) it->second = std::min(it->second, t);
    }
  }
  for (const auto& [g, o] : st.offers) {
    propose_us.push_back(o->propose_us);
    late_ms.push_back(static_cast<double>(o->posted - o->due) / 1000.0);
  }
  for (const auto& [g, last] : st.last_delivery) {
    const Offer& o = *st.offers.at(g);
    const auto w = wire.find(pid_key(o.pid));
    const auto b = bound.find(pid_key(o.pid));
    if (w == wire.end() || b == bound.end()) continue;
    batch_ms.push_back(static_cast<double>(w->second - o.at) / 1000.0);
    order_ms.push_back(static_cast<double>(b->second - w->second) / 1000.0);
    gate_ms.push_back(static_cast<double>(last - b->second) / 1000.0);
    lat_ms.push_back(static_cast<double>(last - o.due) / 1000.0);
  }
  set("gms.propose_us", mean(propose_us), "us");
  set("gms.refused_pct",
      per(100.0 * static_cast<double>(st.refused),
          static_cast<double>(st.offered)),
      "%");
  set("gms.batch_wait_ms_p50", percentile(batch_ms, 0.5), "ms");
  set("gms.batch_wait_ms_p99", percentile(batch_ms, 0.99), "ms");
  set("gms.order_wait_ms_p50", percentile(order_ms, 0.5), "ms");
  set("gms.order_wait_ms_p99", percentile(order_ms, 0.99), "ms");
  set("bcast.gate_wait_ms_p50", percentile(gate_ms, 0.5), "ms");
  set("bcast.gate_wait_ms_p99", percentile(gate_ms, 0.99), "ms");
  const double stage_sum = mean(batch_ms) + mean(order_ms) + mean(gate_ms);
  set("trace.stage_sum_pct", per(100.0 * stage_sum, mean(lat_ms)), "%");

  std::uint64_t on_wire = 0, prop_dgrams = 0, oal_entries = 0;
  std::uint64_t decision_bytes = 0, proposal_bytes = 0, timer_fires = 0;
  std::uint64_t send_calls = 0, dgrams_out = 0, bytes_out = 0, dgrams_in = 0;
  std::uint64_t clock_dgrams = 0, clock_bytes = 0, retransmits = 0;
  std::size_t decision_max = 0;
  std::vector<Micros> decisions;
  std::vector<double> timer_late, post_delay;
  const auto k_req = tw::net::kind_byte(tw::net::MsgKind::clocksync_request);
  const auto k_rep = tw::net::kind_byte(tw::net::MsgKind::clocksync_reply);
  const auto k_rt = tw::net::kind_byte(tw::net::MsgKind::retransmit_request);
  for (const auto& m : ms) {
    on_wire += m.proposals_on_wire;
    prop_dgrams += m.proposal_datagrams;
    oal_entries += m.oal_update_entries;
    decision_bytes += m.decision_bytes;
    proposal_bytes += m.proposal_bytes;
    decision_max = std::max(decision_max, m.decision_bytes_max);
    timer_fires += m.timer_fires;
    send_calls += m.send_calls;
    dgrams_out += m.datagrams_out;
    bytes_out += m.bytes_out;
    dgrams_in += m.datagrams_in;
    clock_dgrams += m.out_by_kind[k_req] + m.out_by_kind[k_rep];
    clock_bytes += m.bytes_by_kind[k_req] + m.bytes_by_kind[k_rep];
    retransmits += m.out_by_kind[k_rt];
    decisions.insert(decisions.end(), m.decision_stamps.begin(),
                     m.decision_stamps.end());
    timer_late.insert(timer_late.end(), m.timer_late_us.begin(),
                      m.timer_late_us.end());
    post_delay.insert(post_delay.end(), m.post_delay_us.begin(),
                      m.post_delay_us.end());
  }
  std::sort(decisions.begin(), decisions.end());
  std::vector<double> gaps;
  for (std::size_t i = 1; i < decisions.size(); ++i)
    gaps.push_back(static_cast<double>(decisions[i] - decisions[i - 1]) /
                   1000.0);
  set("gms.proposals_per_datagram",
      per(static_cast<double>(on_wire), static_cast<double>(prop_dgrams)),
      "count");
  set("gms.decision_gap_ms_p99", percentile(gaps, 0.99), "ms");
  const SpanAgg sd = merged_span(ms, SpanName::recv_decision);
  SpanAgg sp = merged_span(ms, SpanName::recv_proposal);
  const SpanAgg sb = merged_span(ms, SpanName::recv_batch);
  sp.count += sb.count;
  sp.self_us += sb.self_us;
  const SpanAgg stimer = merged_span(ms, SpanName::timer);
  set("gms.on_datagram_us.decision",
      per(sd.self_us, static_cast<double>(sd.count)), "us");
  set("gms.on_datagram_us.proposal",
      per(sp.self_us, static_cast<double>(sp.count)), "us");
  set("gms.timer_us", per(stimer.self_us, static_cast<double>(stimer.count)),
      "us");
  set("gms.timer_fires_per_sec", per(static_cast<double>(timer_fires), secs),
      "1/s");

  // bcast.
  set("bcast.oal_entries_per_decision",
      per(static_cast<double>(oal_entries),
          static_cast<double>(decisions.size())),
      "count");
  set("bcast.oal_resend_ratio",
      per(static_cast<double>(oal_entries), static_cast<double>(bound.size())),
      "ratio");
  set("bcast.decision_bytes_per_update",
      per(static_cast<double>(decision_bytes), updates), "B");
  set("bcast.proposal_bytes_per_update",
      per(static_cast<double>(proposal_bytes), updates), "B");
  set("bcast.decision_bytes_max", static_cast<double>(decision_max), "B");
  set("bcast.retransmit_requests_per_sec",
      per(static_cast<double>(retransmits), secs), "1/s");
  const auto [dec, enc] = codec_us(ms);
  set("bcast.codec_decode_us", dec, "us");
  set("bcast.codec_encode_us", enc, "us");

  // net.
  const SpanAgg ssend = merged_span(ms, SpanName::send);
  set("net.send_us", per(ssend.self_us, static_cast<double>(ssend.count)),
      "us");
  set("net.datagrams_per_update", per(static_cast<double>(send_calls), updates),
      "count");
  set("net.bytes_per_update", per(static_cast<double>(bytes_out), updates),
      "B");
  set("net.sendto_per_update", per(static_cast<double>(dgrams_out), updates),
      "count");
  set("net.recv_per_update", per(static_cast<double>(dgrams_in), updates),
      "count");
  set("net.send_omitted", static_cast<double>(ph.net_errors[0]), "count");
  set("net.send_eagain", static_cast<double>(ph.net_errors[1]), "count");
  set("net.crc_dropped", static_cast<double>(ph.net_errors[2]), "count");

  // evl: loop-thread CPU and wake-ups (UDP only).
  if (udp) {
    double loop_cpu = 0, switches = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      loop_cpu += static_cast<double>(ms[i].thread_cpu_us -
                                      ph.before[i].thread_cpu_us);
      switches += static_cast<double>(ms[i].voluntary_switches -
                                      ph.before[i].voluntary_switches);
    }
    set("evl.loop_cpu_us_per_update", per(loop_cpu, updates), "us");
    set("evl.residual_us_per_update",
        per(std::max(0.0, loop_cpu - sum_root_us(ms)), updates), "us");
    set("evl.wakeups_per_update", per(switches, updates), "count");
    set("evl.post_delay_us_p99", percentile(post_delay, 0.99), "us");
    set("evl.timer_late_us_p99", percentile(timer_late, 0.99), "us");
    set("loadgen.late_ms_p99", percentile(late_ms, 0.99), "ms");
  } else {
    // The simulator kernel: wall time not spent inside a wrapped call.
    set("sim.kernel_us_per_update",
        per(std::max(0.0, static_cast<double>(ph.wall_us) - sum_root_us(ms)),
            updates),
        "us");
    set("sim.events_per_update",
        per(static_cast<double>(dgrams_in + timer_fires + st.offered),
            updates),
        "count");
  }

  // clocksync.
  set("clocksync.datagrams_per_sec",
      per(static_cast<double>(clock_dgrams), secs), "1/s");
  set("clocksync.bytes_per_sec", per(static_cast<double>(clock_bytes), secs),
      "B/s");
}

/// Each full window's p50 and p99 delivery latency, appended to `p50s`
/// and `p99s`. Other tenants of a shared machine delay the loop threads in
/// bursts from a few hundred ms to minutes; they inflate whichever windows
/// they hit, so the steady workloads report the 10th percentile over
/// windows: the slow windows measure the neighbours, the fast ones the code.
void window_percentiles(const PhaseData& ph, const PhaseStats& st,
                        std::vector<double>& p50s, std::vector<double>& p99s) {
  std::map<Micros, std::vector<double>> windows;
  for (const auto& [g, last] : st.last_delivery) {
    const Offer& o = *st.offers.at(g);
    windows[(o.due - ph.start) / kWindow].push_back(
        static_cast<double>(last - o.due) / 1000.0);
  }
  for (const auto& [w, xs] : windows) {
    if (xs.size() < kWindowMin) continue;
    p50s.push_back(percentile(xs, 0.5));
    p99s.push_back(percentile(xs, 0.99));
  }
}

/// CPU per update of a phase: the 10th percentile over its slices, for
/// the reason setup_s is a 10th percentile; the whole phase when it was
/// too short to slice.
double cpu_per_update(const PhaseData& ph, std::size_t complete) {
  if (ph.cpu_slices.size() >= 5) return percentile(ph.cpu_slices, 0.1);
  return per(static_cast<double>(ph.cpu_us), static_cast<double>(complete));
}

void write_spans(const RunArgs& args, const std::vector<MeterData>& ms) {
  ::mkdir(args.span_dir.c_str(), 0755);
  const std::string path = args.span_dir + "/spans_" + args.workload + "_" +
                           std::to_string(args.seed) + ".csv";
  std::ofstream f(path);
  f << "member,name,start_us,end_us,parent,update\n";
  for (std::size_t p = 0; p < ms.size(); ++p)
    for (const auto& s : ms[p].span_log)
      f << p << ',' << span_name(s.name) << ',' << s.start << ',' << s.end
        << ',' << s.parent << ',' << s.id << '\n';
}

void run_steady(bool udp, const RunArgs& args, Report& out) {
  const SteadyPlan plan = plan_for(udp, args);
  const char* what = udp ? "udp" : "sim";

  // Set-up: build a team and run it until every member has installed the
  // full group. The measured team is the first; more formations are timed
  // after each phase, spread over the run, and setup_s is their 10th
  // percentile: on a shared machine the slow samples measure the
  // neighbours, the fast ones the code.
  std::vector<double> setups;
  auto form = [&](std::uint64_t seed) -> std::unique_ptr<Team> {
    const Micros w0 = wall_us();
    std::string error;
    auto t = udp ? make_udp_team(seed, args.trace, error)
                 : make_sim_team(seed, args.trace);
    if (!t) {
      out.fail(std::string(what) + " team: " + error);
      return nullptr;
    }
    t->advance(t->now() + 60 * kSec, w0 + 30 * kSec,
               [&] { return t->formed(); });
    if (!t->formed()) {
      out.fail(std::string(what) + " team did not form within 30 s");
      return nullptr;
    }
    setups.push_back(static_cast<double>(wall_us() - w0) / 1e6);
    return t;
  };
  std::unique_ptr<Team> team = form(args.seed * 1000);
  if (!team) return;
  auto more_setups = [&] {
    for (int k = 0; k < plan.setups_per_point; ++k)
      if (!form(args.seed * 1000 + setups.size())) return false;
    return true;
  };
  team->advance(team->now() + plan.settle, wall_us() + 10 * kSec, nullptr);

  // Phase A at the reference rate. Untraced runs split it over several
  // teams, with timed formations after each part, so that the set-up
  // samples spread over the run and no one team's clock and timer
  // alignment sets the run's figures.
  const int parts = args.trace ? 1 : plan.phase_a_teams;
  std::uint64_t next_g = 0;
  std::vector<double> latency_ms, p50s, p99s;
  PhaseData pooled;  // CPU slices and wall time of every part
  std::size_t offered = 0, failed = 0;
  for (int k = 0; k < parts; ++k) {
    if (k > 0) {
      team.reset();
      team = form(args.seed * 1000 + setups.size());
      if (!team) return;
      team->advance(team->now() + plan.settle, wall_us() + 10 * kSec,
                    nullptr);
    }
    double reference_cpu = 0;
    if (args.trace) {
      PhaseData ref = run_phase(*team, kReferenceRate, plan.phase_a,
                                5 * kSec, plan.phase_a_wall_cap, next_g);
      reference_cpu =
          cpu_per_update(ref, analyze(ref, team->n(), true).complete);
      team->set_tracing(true);
    }
    PhaseData a = run_phase(*team, kReferenceRate, plan.phase_a / parts,
                            5 * kSec, plan.phase_a_wall_cap, next_g);
    PhaseStats sa = analyze(a, team->n(), true);
    for (const auto& v : sa.violations) out.fail("phase A: " + v);
    out.attempted += sa.accepted;
    out.failed += sa.violating_updates;
    if (a.aborted) out.fail("phase A did not finish within its wall-time cap");
    latency_ms.insert(latency_ms.end(), sa.latency_ms.begin(),
                      sa.latency_ms.end());
    window_percentiles(a, sa, p50s, p99s);
    pooled.cpu_slices.insert(pooled.cpu_slices.end(), a.cpu_slices.begin(),
                             a.cpu_slices.end());
    pooled.cpu_us += a.cpu_us;
    pooled.wall_us += a.wall_us;
    offered += sa.offered;
    failed += sa.failed();
    if (args.trace) {
      layer_metrics(a, sa, udp, out);
      const double cpu = cpu_per_update(a, sa.complete);
      out.set("trace.overhead_pct",
              per(100.0 * (cpu - reference_cpu), reference_cpu), "%");
      write_spans(args, a.members);
    }
    if (!more_setups()) return;
  }
  const bool windowed = p99s.size() >= 5;
  out.set("deliver_p50_ms",
          windowed ? percentile(p50s, 0.1) : percentile(latency_ms, 0.5),
          "ms");
  out.set("deliver_p99_ms",
          windowed ? percentile(p99s, 0.1) : percentile(latency_ms, 0.99),
          "ms");
  out.set("cpu_us_per_update", cpu_per_update(pooled, latency_ms.size()),
          "us");
  out.set("failed_pct",
          per(100.0 * static_cast<double>(failed),
              static_cast<double>(offered)),
          "%");
  out.note("deliver_p50_ms, deliver_p99_ms: 10th percentile over " +
           std::to_string(p99s.size()) + " half-second windows; " +
           std::to_string(latency_ms.size()) + " samples at " +
           std::to_string(int(kReferenceRate)) + "/s on " +
           std::to_string(parts) + " team(s), pooled p50 " +
           std::to_string(percentile(latency_ms, 0.5)) + " ms, pooled p99 " +
           std::to_string(percentile(latency_ms, 0.99)) + " ms with " +
           std::to_string(samples_beyond(latency_ms.size(), 0.99)) +
           " beyond; phase A took " +
           std::to_string(static_cast<double>(pooled.wall_us) / 1e6) +
           " s wall");

  // Phase B: the doubling ladder, stopped at the first failing step.
  double max_rate = 0;
  for (double rate = kLadderFirst; rate <= kLadderLast; rate *= 2) {
    PhaseData step = run_phase(*team, rate, plan.step, kDrainBound,
                               plan.step_wall_cap, next_g);
    PhaseStats ss = analyze(step, team->n(), false);
    // Safety checks hold on every step; only liveness may fail.
    for (const auto& v : ss.violations)
      out.fail("ladder " + std::to_string(int(rate)) + "/s: " + v);
    out.attempted += ss.accepted;
    out.failed += ss.violating_updates;
    StepOutcome o;
    o.rate = rate;
    o.offered = ss.offered;
    o.failed = ss.failed();
    o.p99_ms = p99_with_failures(ss.latency_ms, ss.failed());
    o.drained = step.drained;
    o.aborted = step.aborted;
    const bool pass = step_passes(o, kLimits);
    char line[200];
    std::snprintf(line, sizeof line,
                  "ladder %s %6.0f/s: p99 %.2f ms, failed %.2f%% (%zu refused, "
                  "%zu undelivered), %s%s, %.2f s wall -> %s",
                  what, rate, o.p99_ms, o.failed_pct(), ss.refused,
                  ss.accepted - ss.complete,
                  o.drained ? "drained" : "backlog",
                  o.aborted ? ", aborted" : "",
                  static_cast<double>(step.wall_us) / 1e6,
                  pass ? "pass" : "FAIL");
    out.note(line);
    if (!more_setups()) return;
    if (pass) {
      max_rate = rate;
      continue;
    }
    if (args.trace) {
      out.set("ladder_fail.rate_per_sec", rate, "1/s");
      out.set("ladder_fail.deliver_p99_ms", percentile(ss.latency_ms, 0.99),
              "ms");
      out.set("ladder_fail.failed_pct", o.failed_pct(), "%");
      Report step_layers;
      layer_metrics(step, ss, udp, step_layers);
      for (const auto& f : step_layers.check_failures) out.fail(f);
      for (const char* name :
           {"gms.batch_wait_ms_p99", "gms.order_wait_ms_p50",
            "gms.order_wait_ms_p99", "gms.decision_gap_ms_p99",
            "gms.proposals_per_datagram", "gms.refused_pct",
            "bcast.gate_wait_ms_p99", "bcast.decision_bytes_max",
            "bcast.oal_entries_per_decision", "net.send_omitted",
            "net.send_eagain", "evl.timer_late_us_p99",
            "loadgen.late_ms_p99"}) {
        const auto it = step_layers.metrics.find(name);
        if (it != step_layers.metrics.end())
          out.set(std::string("ladder_fail.") + name, it->second.value,
                  it->second.unit);
      }
    }
    break;
  }
  out.set("max_rate_per_sec", max_rate, "1/s");
  out.set("setup_s", percentile(setups, 0.1), "s");
  out.note("setup_s: 10th percentile of " + std::to_string(setups.size()) +
           " formations");
}

}  // namespace

void run_udp_steady(const RunArgs& args, Report& out) {
  run_steady(true, args, out);
}

void run_sim_steady(const RunArgs& args, Report& out) {
  run_steady(false, args, out);
}

}  // namespace pb
