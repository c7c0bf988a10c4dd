// sim_crash_lossy: five-member SimHarness teams with durable in-memory
// stores on a lossy network (5% loss, 2% late datagrams), an open loop of
// 200 updates/s from the members that are up, and a seeded schedule of
// crash-then-recover episodes: in each 4 s episode one member crashes at
// a random phase and recovers 2 s later.
//
// Each episode runs on a fresh team under its own seed derived from
// --seed. One long simulation slows down more than linearly: when a
// rejoining member stalls oal garbage collection, decisions grow to tens
// of KB and every later one costs more. Independent episodes also keep
// the pooled figures steady across seeds. The schedule is stratified so
// that seeds differ in order, not in mix: every member is the victim
// equally often and the crash phases cover [0, 2 s) evenly.
//
// The stack's majority-agreement invariants are checked after every
// episode, but a violation is counted (gms.agreement_violations) rather
// than failing the run: the stack breaks them in about one episode in a
// thousand (ordinal conflicts between members' histories after a
// recovery), so a check that failed the run would fail a large share of
// runs. The load is total-order, strong-atomicity because weak atomicity
// breaks them in most runs and would drown that signal.
#include <map>
#include <set>

#include "gms/sim_harness.hpp"
#include "net/msg_kind.hpp"
#include "team.hpp"

namespace pb {

namespace {

using tw::ProcessId;
using tw::net::MsgKind;
using tw::sim::TraceKind;

constexpr int kMembers = 5;
constexpr double kRate = 200.0;
constexpr Micros kEpisode = 4 * kSec;
constexpr Micros kDown = 2 * kSec;
/// A member owes the delivery of an update when it did not crash, or was
/// back in service, from when the update was due until this long after.
constexpr Micros kHorizon = 3 * kSec;
/// How often the driver checks whether a recovered member serves again.
constexpr Micros kPoll = 10 * kMs;

struct Episode {
  ProcessId victim = 0;
  Micros crash = 0;  ///< phase within the episode until placed on a team
  Micros recover = 0;
};

template <typename T>
void shuffle(std::vector<T>& xs, std::uint64_t& rng) {
  for (std::size_t i = xs.size(); i > 1; --i)
    std::swap(xs[i - 1], xs[splitmix64(rng) % i]);
}

/// The run's episodes: victims round-robin and phases stratified over
/// [0, kEpisode - kDown), both shuffled by the seed.
std::vector<Episode> crash_plan(std::uint64_t seed, int episodes) {
  std::uint64_t rng = seed * 0x2545f4914f6cdd1dULL + 7;
  std::vector<ProcessId> victims;
  std::vector<Micros> phases;
  const auto n = static_cast<std::uint64_t>(episodes);
  const auto span = static_cast<std::uint64_t>(kEpisode - kDown);
  for (std::uint64_t k = 0; k < n; ++k) {
    victims.push_back(static_cast<ProcessId>(k % kMembers));
    phases.push_back(static_cast<Micros>((k * span + splitmix64(rng) % span) /
                                         n));
  }
  shuffle(victims, rng);
  shuffle(phases, rng);
  std::vector<Episode> plan(n);
  for (std::size_t k = 0; k < n; ++k) {
    plan[k].victim = victims[k];
    plan[k].crash = phases[k];
  }
  return plan;
}

/// Everything the segments measured, pooled.
struct CrashTotals {
  std::vector<double> setup_s, latency_ms, view_ms, outage_ms, detect_ms,
      election_ms, rehab_ms, propose_us, decision_gap_ms;
  /// Per episode: process CPU over its load and the updates it delivered.
  std::vector<std::pair<Micros, std::size_t>> episode_cpu;
  std::size_t violating_segments = 0;
  std::vector<std::string> violation_notes;
  std::size_t episodes = 0, offered = 0, refused = 0, lost_with_proposer = 0,
              lost = 0, partial = 0, false_suspicions = 0, views = 0,
              sync_lost = 0;
  std::uint64_t round_drops = 0;
  double control_msgs = 0, retransmits = 0, clock_dgrams = 0,
         clock_bytes = 0, state_bytes = 0, team_secs = 0;
};

tw::gms::HarnessConfig harness_config(std::uint64_t seed) {
  tw::gms::HarnessConfig cfg;
  cfg.n = kMembers;
  cfg.seed = seed;
  cfg.node = workload_node_config();
  cfg.delays.loss_prob = 0.05;
  cfg.delays.late_prob = 0.02;
  cfg.durable_store = true;
  return cfg;
}

bool crashed_during(const std::vector<Episode>& eps, ProcessId p,
                    Micros from, Micros to) {
  for (const auto& e : eps)
    if (e.victim == p && e.crash < to && e.recover > from) return true;
  return false;
}

using Gaps = std::vector<std::pair<Micros, Micros>>;

bool gap_during(const Gaps& gaps, Micros from, Micros to) {
  for (const auto& [s, e] : gaps)
    if (s < to && e > from) return true;
  return false;
}

/// One segment: form a team, run the planned episodes under load, check the
/// outputs and pool the measurements.
bool run_segment(std::uint64_t seed, std::vector<Episode> eps,
                 CrashTotals& tot, Report& out) {
  const std::string tag = "segment seed " + std::to_string(seed) + ": ";
  const Micros w0 = wall_us();
  tw::gms::SimHarness h(harness_config(seed));
  h.start();
  const auto full = tw::util::ProcessSet::full(kMembers);
  if (!h.run_until_group(full, h.now() + 30 * kSec)) {
    out.fail(tag + "team did not form within 30 s of simulated time");
    return false;
  }
  tot.setup_s.push_back(static_cast<double>(wall_us() - w0) / 1e6);

  const Micros t0 = h.now() + 1 * kSec;
  for (std::size_t k = 0; k < eps.size(); ++k) {
    eps[k].crash += t0 + static_cast<Micros>(k) * kEpisode;
    eps[k].recover = eps[k].crash + kDown;
  }
  const Micros load_end = t0 + static_cast<Micros>(eps.size()) * kEpisode;

  // The open loop, as a chain of simulator events; each update goes to the
  // next member in turn that is up. A recovered process is up before its
  // node has restarted (on_start runs one scheduling delay later), and an
  // application cannot call into a process that has not started, so the
  // load also skips a member whose durable incarnation has not moved past
  // the one it crashed in.
  const auto count = static_cast<std::uint64_t>(
      kRate * static_cast<double>(load_end - t0) / 1e6);
  std::vector<Offer> offers(count);
  auto& procs = h.cluster().processes();
  std::vector<std::uint64_t> inc_at_crash(kMembers, 0);
  auto started = [&](ProcessId p) {
    return procs.is_up(p) && h.node(p).incarnation() > inc_at_crash[p];
  };
  std::function<void(std::uint64_t)> schedule = [&](std::uint64_t g) {
    if (g >= count) return;
    const Micros due =
        t0 + static_cast<Micros>(static_cast<double>(g) * 1e6 / kRate);
    h.cluster().simulator().at(due, [&, g, due] {
      auto m = static_cast<ProcessId>(g % kMembers);
      for (int i = 0; i < kMembers && !started(m); ++i)
        m = static_cast<ProcessId>((m + 1) % kMembers);
      Offer& o = offers[g];
      o.g = g;
      o.member = m;
      o.due = o.posted = o.at = due;
      const Micros pw = wall_us();
      const auto r = h.node(m).try_propose(make_payload(seed, g),
                                           tw::bcast::Order::total,
                                           tw::bcast::Atomicity::strong);
      o.propose_us = static_cast<double>(wall_us() - pw);
      o.accepted = r.accepted;
      if (r.accepted) o.pid = tw::bcast::ProposalId{m, r.seq};
      schedule(g + 1);
    });
  };
  schedule(0);

  const auto stats0 = h.cluster().network().stats();
  const std::size_t trace0 = h.cluster().trace_log().records().size();
  std::vector<std::uint64_t> drops_base(kMembers);
  for (int p = 0; p < kMembers; ++p)
    drops_base[static_cast<std::size_t>(p)] =
        h.node(static_cast<ProcessId>(p)).stats().stale_dropped;
  const Micros cpu0 = process_cpu_us();
  const Micros wall_deadline = wall_us() + 60 * kSec;

  // Drive the schedule. A crashed member owes no deliveries from its crash
  // until it serves again: restarted, in an installed group and
  // rehabilitated, as sampled every kPoll.
  std::vector<Gaps> gaps(kMembers);
  std::vector<Micros> down_since(kMembers, -1);
  std::vector<Micros> recovered_at(kMembers, -1);
  std::size_t next_crash = 0, next_recover = 0;
  while (h.now() < load_end) {
    if (wall_us() > wall_deadline) {
      out.fail(tag + "exceeded its 60 s wall-time cap");
      return false;
    }
    Micros next = std::min(load_end, h.now() + kPoll);
    if (next_crash < eps.size()) next = std::min(next, eps[next_crash].crash);
    if (next_recover < eps.size())
      next = std::min(next, eps[next_recover].recover);
    h.run_until(next);
    if (next_crash < eps.size() && eps[next_crash].crash == next) {
      const ProcessId v = eps[next_crash].victim;
      inc_at_crash[v] = h.node(v).incarnation();
      procs.crash(v);
      if (down_since[v] < 0) down_since[v] = next;
      ++next_crash;
    }
    if (next_recover < eps.size() && eps[next_recover].recover == next) {
      const ProcessId v = eps[next_recover].victim;
      tot.round_drops += h.node(v).stats().stale_dropped - drops_base[v];
      drops_base[v] = 0;  // counters restart with the new incarnation
      procs.recover(v);
      recovered_at[v] = next;
      ++next_recover;
    }
    for (int i = 0; i < kMembers; ++i) {
      const auto p = static_cast<ProcessId>(i);
      const auto& node = h.node(p);
      if (down_since[p] < 0 || recovered_at[p] < 0 || !started(p) ||
          !node.in_group() || node.recovered_dirty() || node.awaiting_state())
        continue;
      gaps[p].emplace_back(down_since[p], h.now());
      tot.rehab_ms.push_back(static_cast<double>(h.now() - recovered_at[p]) /
                             1e3);
      down_since[p] = recovered_at[p] = -1;
    }
  }
  const Micros cpu_us = process_cpu_us() - cpu0;
  const double run_secs = static_cast<double>(load_end - t0) / 1e6;
  tot.team_secs += run_secs;
  for (int p = 0; p < kMembers; ++p)
    if (down_since[p] >= 0) gaps[p].emplace_back(down_since[p], INT64_MAX);

  // Quiet tail: the whole team must re-form and converge.
  if (!h.run_until_group(full, h.now() + 30 * kSec)) {
    out.fail(tag + "team did not re-form after the last episode");
    return false;
  }
  h.run_for(3 * kSec);
  for (int p = 0; p < kMembers; ++p)
    tot.round_drops += h.node(static_cast<ProcessId>(p)).stats().stale_dropped -
                       drops_base[static_cast<std::size_t>(p)];

  // --- output checks ------------------------------------------------------
  const auto violations = h.check_majority_agreement_invariants(full);
  if (!violations.empty()) {
    ++tot.violating_segments;
    if (tot.violation_notes.size() < 3)
      tot.violation_notes.push_back(tag + violations.front() + " (+" +
                                    std::to_string(violations.size() - 1) +
                                    " more)");
  }
  std::set<std::uint64_t> bad;
  std::vector<std::map<std::uint64_t, Micros>> first_at(kMembers);
  for (int p = 0; p < kMembers; ++p) {
    for (const auto& d : h.delivered(static_cast<ProcessId>(p))) {
      const std::uint64_t g = payload_index(d.payload);
      if (!payload_intact(seed, d.payload) || g >= count ||
          !offers[g].accepted || !(offers[g].pid == d.pid)) {
        if (bad.insert(g).second && bad.size() <= 10)
          out.fail(tag + "member " + std::to_string(p) +
                   " delivered update " + std::to_string(g) +
                   " corrupted or under a wrong id");
        continue;
      }
      first_at[static_cast<std::size_t>(p)].try_emplace(g, d.at);
    }
  }
  out.failed += bad.size();

  // --- delivery latency and failures -------------------------------------
  const std::size_t samples0 = tot.latency_ms.size();
  for (const auto& o : offers) {
    ++tot.offered;
    tot.propose_us.push_back(o.propose_us);
    if (!o.accepted) {
      ++tot.refused;
      continue;
    }
    ++out.attempted;
    Micros last = -1;
    int required = 0, got = 0, anywhere = 0;
    for (int p = 0; p < kMembers; ++p) {
      const auto& fa = first_at[static_cast<std::size_t>(p)];
      const auto it = fa.find(o.g);
      if (it != fa.end()) ++anywhere;
      if (gap_during(gaps[static_cast<std::size_t>(p)], o.due,
                     o.due + kHorizon))
        continue;
      ++required;
      if (it == fa.end()) continue;
      ++got;
      last = std::max(last, it->second);
    }
    if (got == required && required > 0) {
      tot.latency_ms.push_back(static_cast<double>(last - o.due) / 1e3);
    } else if (anywhere == 0 &&
               crashed_during(eps, o.member, o.due, o.due + kHorizon)) {
      ++tot.lost_with_proposer;  // may vanish with their proposer
    } else if (anywhere == 0) {
      ++tot.lost;
    } else {
      ++tot.partial;
    }
  }

  tot.episode_cpu.emplace_back(cpu_us, tot.latency_ms.size() - samples0);

  // --- per-episode metrics from the trace log -----------------------------
  const auto& recs = h.cluster().trace_log().records();
  Micros last_decision = -1;
  for (std::size_t i = trace0; i < recs.size(); ++i) {
    const auto& r = recs[i];
    if (r.t >= load_end) break;
    if (r.kind == TraceKind::decision_sent) {
      if (last_decision >= 0)
        tot.decision_gap_ms.push_back(
            static_cast<double>(r.t - last_decision) / 1e3);
      last_decision = r.t;
    }
    if (r.kind == TraceKind::suspicion &&
        !crashed_during(eps, static_cast<ProcessId>(r.a), r.t, r.t + 1))
      ++tot.false_suspicions;
    if (r.kind == TraceKind::group_created) ++tot.views;
    if (r.kind == TraceKind::clock_sync_lost) ++tot.sync_lost;
  }
  for (const auto& e : eps) {
    const Micros window_end = e.crash + (kEpisode - kDown);
    Micros detected = -1;
    std::vector<Micros> installed(kMembers, -1);
    for (std::size_t i = trace0; i < recs.size(); ++i) {
      const auto& r = recs[i];
      if (r.t < e.crash) continue;
      if (r.t >= window_end) break;
      if (r.kind == TraceKind::suspicion && r.a == e.victim && detected < 0)
        detected = r.t;
      if (r.kind == TraceKind::view_installed && r.p < kMembers &&
          !r.set.contains(e.victim) && installed[r.p] < 0)
        installed[r.p] = r.t;
    }
    Micros view = e.crash;
    bool all_installed = true;
    std::vector<std::vector<std::pair<Micros, Micros>>> survivor_deliveries;
    for (int p = 0; p < kMembers; ++p) {
      if (static_cast<ProcessId>(p) == e.victim) continue;
      const Micros at = installed[static_cast<std::size_t>(p)];
      if (at < 0)
        all_installed = false;
      else
        view = std::max(view, at);
      std::vector<std::pair<Micros, Micros>> ds;
      for (const auto& [g, t] : first_at[static_cast<std::size_t>(p)])
        if (t >= e.crash && t < window_end) ds.emplace_back(offers[g].due, t);
      survivor_deliveries.push_back(std::move(ds));
    }
    if (all_installed)
      tot.view_ms.push_back(static_cast<double>(view - e.crash) / 1e3);
    if (detected >= 0)
      tot.detect_ms.push_back(static_cast<double>(detected - e.crash) / 1e3);
    if (all_installed && detected >= 0 && view >= detected)
      tot.election_ms.push_back(static_cast<double>(view - detected) / 1e3);
    const Micros o = outage(e.crash, survivor_deliveries);
    if (o >= 0) tot.outage_ms.push_back(static_cast<double>(o) / 1e3);
  }
  tot.episodes += eps.size();

  // --- message accounting from the network's registry ---------------------
  const auto& stats1 = h.cluster().network().stats();
  auto sent = [&](MsgKind k) {
    const auto b = tw::net::kind_byte(k);
    return static_cast<double>(stats1.by_kind[b].sent - stats0.by_kind[b].sent);
  };
  auto bytes = [&](MsgKind k) {
    const auto b = tw::net::kind_byte(k);
    return static_cast<double>(stats1.by_kind[b].bytes_sent -
                               stats0.by_kind[b].bytes_sent);
  };
  tot.control_msgs += sent(MsgKind::no_decision) +
                      sent(MsgKind::reconfiguration) + sent(MsgKind::join);
  tot.retransmits += sent(MsgKind::retransmit_request);
  tot.clock_dgrams +=
      sent(MsgKind::clocksync_request) + sent(MsgKind::clocksync_reply);
  tot.clock_bytes +=
      bytes(MsgKind::clocksync_request) + bytes(MsgKind::clocksync_reply);
  tot.state_bytes += bytes(MsgKind::state_transfer);
  return true;
}

/// CPU per delivered update as the 10th percentile over groups of
/// consecutive episodes: on a shared machine the slow groups measure the
/// neighbours, the fast ones the code.
double median_group_rate(const std::vector<std::pair<Micros, std::size_t>>& eps) {
  constexpr std::size_t kGroup = 10;
  const std::size_t groups = std::max<std::size_t>(1, eps.size() / kGroup);
  std::vector<double> rates;
  for (std::size_t g = 0; g < groups; ++g) {
    // Episodes left over after the last full group join it.
    const std::size_t end = g + 1 == groups ? eps.size() : (g + 1) * kGroup;
    double cpu = 0, updates = 0;
    for (std::size_t j = g * kGroup; j < end; ++j) {
      cpu += static_cast<double>(eps[j].first);
      updates += static_cast<double>(eps[j].second);
    }
    rates.push_back(per(cpu, updates));
  }
  return percentile(rates, 0.1);
}

}  // namespace

void run_sim_crash_lossy(const RunArgs& args, Report& out) {
  const int episodes =
      args.smoke ? 3 : std::max(3, static_cast<int>(40.0 * args.seconds));
  const std::vector<Episode> plan = crash_plan(args.seed, episodes);
  CrashTotals tot;
  for (std::size_t k = 0; k < plan.size(); ++k)
    if (!run_segment(args.seed * 1000 + k, {plan[k]}, tot, out)) return;

  const auto offered = static_cast<double>(std::max<std::size_t>(1, tot.offered));
  const std::size_t failed =
      tot.refused + tot.lost_with_proposer + tot.lost + tot.partial;
  // Updates missing at a member that did not crash are failures, not check
  // violations: a member excluded on a false suspicion takes a state
  // transfer in place of the deliveries it missed.
  out.note("crash: " + std::to_string(tot.violating_segments) + " of " +
           std::to_string(tot.episodes) +
           " episodes broke the majority-agreement invariants");
  for (const auto& v : tot.violation_notes) out.note("crash: " + v);
  out.set("setup_s", percentile(tot.setup_s, 0.1), "s");
  out.set("deliver_p50_ms", percentile(tot.latency_ms, 0.5), "ms");
  out.set("deliver_p99_ms", percentile(tot.latency_ms, 0.99), "ms");
  out.set("cpu_us_per_update", median_group_rate(tot.episode_cpu), "us");
  out.set("failed_pct", 100.0 * static_cast<double>(failed) / offered, "%");
  out.note("crash: " + std::to_string(tot.offered) + " offered, " +
           std::to_string(tot.refused) + " refused, " +
           std::to_string(tot.lost_with_proposer) +
           " lost with their crashed proposer, " + std::to_string(tot.lost) +
           " lost otherwise, " + std::to_string(tot.partial) +
           " missing at a member that did not crash; " +
           std::to_string(tot.latency_ms.size()) + " latency samples");
  out.note("setup_s: 10th percentile of " +
           std::to_string(tot.setup_s.size()) + " formations");

  out.set("view_change_p50_ms", percentile(tot.view_ms, 0.5), "ms");
  out.set("view_change_p90_ms", percentile(tot.view_ms, 0.9), "ms");
  out.set("outage_p50_ms", percentile(tot.outage_ms, 0.5), "ms");
  out.set("outage_p90_ms", percentile(tot.outage_ms, 0.9), "ms");
  out.set("false_suspicions_per_min",
          static_cast<double>(tot.false_suspicions) / (tot.team_secs / 60.0),
          "1/min");
  out.note("crash: " + std::to_string(tot.episodes) + " episodes, " +
           std::to_string(tot.view_ms.size()) + " view-change samples (" +
           std::to_string(samples_beyond(tot.view_ms.size(), 0.9)) +
           " beyond p90), " + std::to_string(tot.outage_ms.size()) +
           " outage samples (" +
           std::to_string(samples_beyond(tot.outage_ms.size(), 0.9)) +
           " beyond p90)");

  const double eps_n = static_cast<double>(std::max<std::size_t>(1, tot.episodes));
  out.set("gms.propose_us", mean(tot.propose_us), "us");
  out.set("gms.refused_pct", 100.0 * static_cast<double>(tot.refused) / offered,
          "%");
  out.set("gms.detect_ms_p50", percentile(tot.detect_ms, 0.5), "ms");
  out.set("gms.detect_ms_p90", percentile(tot.detect_ms, 0.9), "ms");
  out.set("gms.election_ms_p50", percentile(tot.election_ms, 0.5), "ms");
  out.set("gms.election_ms_p90", percentile(tot.election_ms, 0.9), "ms");
  out.set("gms.decision_gap_ms_p99", percentile(tot.decision_gap_ms, 0.99),
          "ms");
  out.set("gms.agreement_violations",
          static_cast<double>(tot.violating_segments), "count");
  out.set("gms.views_per_crash", static_cast<double>(tot.views) / eps_n,
          "count");
  out.set("gms.control_msgs_per_crash", tot.control_msgs / eps_n, "count");
  out.set("gms.round_drops_per_sec",
          static_cast<double>(tot.round_drops) / tot.team_secs, "1/s");
  out.set("bcast.retransmit_requests_per_sec", tot.retransmits / tot.team_secs,
          "1/s");
  out.set("clocksync.datagrams_per_sec", tot.clock_dgrams / tot.team_secs,
          "1/s");
  out.set("clocksync.bytes_per_sec", tot.clock_bytes / tot.team_secs, "B/s");
  out.set("clocksync.sync_lost", static_cast<double>(tot.sync_lost), "count");
  out.set("store.rehab_ms_p50", percentile(tot.rehab_ms, 0.5), "ms");
  out.set("store.rehab_ms_p90", percentile(tot.rehab_ms, 0.9), "ms");
  out.set("store.state_transfer_bytes", tot.state_bytes / eps_n, "B");
}

}  // namespace pb
