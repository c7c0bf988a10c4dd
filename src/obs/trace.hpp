// Per-process structured trace ring — the observability substrate.
//
// Every layer of the stack (event loop, transports, clock sync, broadcast,
// membership) emits fixed-size, allocation-free records into a bounded ring
// owned by its process. Records are stamped with the process's HARDWARE
// clock plus the clock-sync service's current correction, so traces from
// different processes can be merged into one cross-process timeline ordered
// by synchronized-clock time (see obs/timeline.hpp and tools/twtrace) —
// reconstructing a logically synchronous view of an asynchronous execution.
//
// The ring is deliberately lossy: when full it overwrites the oldest
// record, so what survives a long run is the recent history around the
// interesting event (a torture failure, a view change), at O(1) memory.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace tw::obs {

/// Record types, spanning every layer of the stack.
enum class EvKind : std::uint8_t {
  // net (both transports): arg = message-kind byte; a = peer; b = bytes.
  dgram_send = 0,
  dgram_recv = 1,
  /// arg = DropReason; a = peer (kNoProcess if unknown); b = bytes/errno.
  dgram_drop = 2,

  // evl / timers. timer_arm: a = timer id, b = deadline (µs, local clock
  // domain). timer_fire: a = timer id, b = fire latency (µs past the
  // deadline — dispatch jitter), so twtrace can pair a fire with its arm
  // (pre-wheel traces put the deadline in a, which never matches an arm
  // id). timer_cancel: a = timer id.
  timer_arm = 3,
  timer_fire = 4,
  timer_cancel = 5,
  /// A cross-thread post() woke the poll loop; a = posted-queue depth.
  post_wake = 6,

  // clocksync: arg = 1 synchronized / 0 out-of-date; a = fresh peer
  // readings; b = median offset (two's complement bit pattern).
  clock_round = 7,
  clock_sync_lost = 8,
  clock_sync_gained = 9,

  // bcast: a = ordinal; b = proposer.
  bcast_order = 10,
  bcast_deliver = 11,

  // gms: fsm_transition a = new GcState, b = old GcState;
  // view_install a = group id, b = member-set bits; suspect a = suspect.
  fsm_transition = 12,
  view_install = 13,
  suspect = 14,
  /// arg = 1 when this start is a crash recovery.
  node_start = 15,

  // store / crash recovery: store_open arg = 1 on recovery, a = log
  // records replayed, b = bytes lost to corruption (skipped + truncated +
  // undecodable). rejoin_request a = solicited member. rehabilitated
  // arg = how the episode ended (0 = re-baselined by a state transfer,
  // 2 = gave up waiting for a donor, 3 = a state transfer replaced a
  // forked history), a = group id, b = buffered deliveries flushed.
  store_open = 16,
  rejoin_request = 17,
  rehabilitated = 18,

  // epoch fencing (heal-path hardening). epoch_fence: arg = 0 fence
  // raised (a = new fence, b = old), arg = 1 stale-epoch control message
  // refused (a = message gid, b = our gid), arg = 2 divergence detected —
  // the node re-solicits a fresh baseline (a = divergent rebinds,
  // b = window epoch). oal_quarantined: arg = 0 whole stale window
  // refused (a = window epoch, b = fence), arg = 1 cross-epoch ordinal
  // rebind (a = ordinal, b = old bind epoch << 32 | new epoch), arg = 2
  // delivered binding displaced by the adopted window, which binds its
  // ordinal to another proposal (a = ordinal, b = old bind epoch << 32 |
  // window epoch; equal halves mean a same-epoch fork).
  // rejoin_retry: arg = 0 state-request retry / 1 rejoin solicitation
  // (a = attempt number, b = target member).
  epoch_fence = 19,
  oal_quarantined = 20,
  rejoin_retry = 21,

  // Communication-closed round gate (gms/round.hpp): an inbound control
  // message was refused at the choke point. arg packs the message class in
  // the high nibble and the RoundDrop reason in the low nibble; a = the
  // epoch (gid) the message carried (0 when its kind carries none); b = its
  // send_ts — the round tag. The per-node total is the gms.stale_dropped
  // counter.
  round_drop = 22,

  // Overload state machine (gms/timewheel_node): the node crossed a queue
  // occupancy watermark. arg = the new OverloadState (0 normal /
  // 1 backpressured / 2 shedding); a = the occupancy at the transition;
  // b = the watermark that triggered it. overload_enter fires on any
  // transition to a MORE loaded state, overload_exit on recovery.
  overload_enter = 23,
  overload_exit = 24,
};

/// Why a datagram was dropped at or before the receive path.
enum class DropReason : std::uint8_t {
  crc = 0,        ///< CRC-32C integrity rejection
  runt = 1,       ///< too short to carry the frame header
  crashed = 2,    ///< receiver simulated-crashed
  // 3 is unused: saved traces store these numbers, so a retired reason's
  // number is never reused.
  send_fail = 4,  ///< sendto() failed — counted as an omission
  recv_err = 5,   ///< recv() failed with a real (non-EAGAIN) errno
  loss = 6,       ///< simulated ambient omission (loss_prob)
  link = 7,       ///< partition / forced-down link
  rule = 8,       ///< one-shot fault-injection drop rule
  backpressure = 9,  ///< shed at the sender: per-peer outbound cap hit
};

[[nodiscard]] const char* ev_kind_name(EvKind k);
[[nodiscard]] const char* drop_reason_name(DropReason r);
/// Inverse of ev_kind_name. Returns false for an unknown name.
bool ev_kind_from_name(std::string_view name, EvKind& out);

/// One trace record. Plain data, no heap — emitting is a few stores.
struct Event {
  std::int64_t t = 0;    ///< hardware-clock time at emit (µs)
  std::int64_t off = 0;  ///< clock-sync correction known at emit (µs)
  std::uint32_t p = 0;   ///< emitting process
  EvKind kind = EvKind::dgram_send;
  std::uint8_t arg = 0;  ///< kind byte / drop reason / flag
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  /// Synchronized-clock estimate used for cross-process merging.
  [[nodiscard]] std::int64_t t_sync() const { return t + off; }

  friend bool operator==(const Event&, const Event&) = default;
};

/// Fixed-capacity overwrite-oldest ring of Events. Emit is O(1) and
/// allocation-free after construction. Not thread-safe: a ring belongs to
/// one event-loop thread; snapshot it after the loop has stopped (the
/// simulator is single-threaded, so tests may snapshot at any time).
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 8192);

  void emit(const Event& e);

  /// Oldest-to-newest copy of the retained records.
  [[nodiscard]] std::vector<Event> snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  /// Records currently retained (≤ capacity).
  [[nodiscard]] std::size_t size() const;
  /// Total records ever emitted (≥ size; the difference was overwritten).
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  /// Records lost to wraparound.
  [[nodiscard]] std::uint64_t overwritten() const {
    return emitted_ - size();
  }

  void clear();

 private:
  std::vector<Event> buf_;
  std::size_t next_ = 0;      ///< next write position
  std::uint64_t emitted_ = 0;
};

// --- JSONL export / import -------------------------------------------------
// One record per line:
//   {"t":123,"off":-456,"p":0,"k":"dgram_send","arg":9,"a":1,"b":2}
// The format is self-contained (each line carries its process id), so a
// merged file and a set of per-process files are equally valid inputs.

/// Append `events` to `os`, one JSON object per line.
void write_jsonl(std::ostream& os, const std::vector<Event>& events);
[[nodiscard]] std::string to_jsonl(const std::vector<Event>& events);
/// Encode one event (no trailing newline).
[[nodiscard]] std::string to_json(const Event& e);
/// Parse one JSONL line. Returns false on malformed input or unknown kind.
bool from_json(std::string_view line, Event& out);
/// Parse a whole JSONL document; skips blank lines. Returns false if any
/// non-blank line fails to parse (out holds everything parsed so far).
bool parse_jsonl(std::string_view text, std::vector<Event>& out);

}  // namespace tw::obs
