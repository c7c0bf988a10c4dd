#include "gms/messages.hpp"

#include "util/buffer_pool.hpp"

namespace tw::gms {

void encode_pid_list(util::ByteWriter& w,
                     const std::vector<bcast::ProposalId>& pids) {
  w.var_u64(pids.size());
  for (const auto& pid : pids) {
    w.u32(pid.proposer);
    w.var_u64(pid.seq);
  }
}

std::vector<bcast::ProposalId> decode_pid_list(util::ByteReader& r) {
  const std::uint64_t n = r.var_u64();
  if (n > 1 << 16) throw util::DecodeError("pid list too large");
  std::vector<bcast::ProposalId> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    bcast::ProposalId pid;
    pid.proposer = r.u32();
    pid.seq = static_cast<ProposalSeq>(r.var_u64());
    out.push_back(pid);
  }
  return out;
}

std::vector<std::byte> NoDecision::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::no_decision));
  w.u32(suspect);
  w.var_u64(gid);
  w.var_i64(send_ts);
  w.var_i64(last_decision_ts);
  w.u64(alive.bits());
  view.encode(w);
  encode_pid_list(w, dpd);
  return std::move(w).take();
}

NoDecision NoDecision::decode(util::ByteReader& r) {
  NoDecision m;
  m.suspect = r.u32();
  m.gid = r.var_u64();
  m.send_ts = r.var_i64();
  m.last_decision_ts = r.var_i64();
  m.alive = util::ProcessSet(r.u64());
  m.view = bcast::Oal::decode(r);
  m.dpd = decode_pid_list(r);
  r.expect_done();
  return m;
}

std::vector<std::byte> Join::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::join));
  w.var_i64(send_ts);
  w.u64(join_list.bits());
  w.var_i64(last_decision_ts);
  w.var_u64(gid);
  return std::move(w).take();
}

Join Join::decode(util::ByteReader& r) {
  Join m;
  m.send_ts = r.var_i64();
  m.join_list = util::ProcessSet(r.u64());
  m.last_decision_ts = r.var_i64();
  m.gid = r.var_u64();
  r.expect_done();
  return m;
}

std::vector<std::byte> Reconfiguration::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::reconfiguration));
  w.var_i64(send_ts);
  w.u64(recon_list.bits());
  w.var_i64(last_decision_ts);
  w.var_u64(last_gid);
  w.u64(last_group.bits());
  w.u64(alive.bits());
  view.encode(w);
  encode_pid_list(w, dpd);
  return std::move(w).take();
}

Reconfiguration Reconfiguration::decode(util::ByteReader& r) {
  Reconfiguration m;
  m.send_ts = r.var_i64();
  m.recon_list = util::ProcessSet(r.u64());
  m.last_decision_ts = r.var_i64();
  m.last_gid = r.var_u64();
  m.last_group = util::ProcessSet(r.u64());
  m.alive = util::ProcessSet(r.u64());
  m.view = bcast::Oal::decode(r);
  m.dpd = decode_pid_list(r);
  r.expect_done();
  return m;
}

std::vector<std::byte> StateTransfer::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::state_transfer));
  w.var_u64(gid);
  w.var_i64(send_ts);
  w.bytes(app_state);
  w.var_u64(proposals.size());
  // Proposal bodies inline (the wire format minus its kind byte): the body
  // is self-delimiting, so no per-proposal length prefix or staging buffer
  // is needed.
  for (const auto& p : proposals) bcast::encode_proposal_body(w, p);
  oal.encode(w);
  w.var_u64(marks.delivered_below);
  encode_pid_list(w, marks.delivered);
  auto encode_seq_map =
      [&w](const std::vector<std::pair<ProcessId, ProposalSeq>>& m) {
        w.var_u64(m.size());
        for (const auto& [proposer, seq] : m) {
          w.u32(proposer);
          w.var_u64(seq);
        }
      };
  encode_seq_map(marks.ordered_below);
  encode_seq_map(marks.forgotten_below);
  return std::move(w).take();
}

StateTransfer StateTransfer::decode(util::ByteReader& r) {
  StateTransfer m;
  m.gid = r.var_u64();
  m.send_ts = r.var_i64();
  m.app_state = r.bytes();
  const std::uint64_t count = r.var_u64();
  if (count > 1 << 20)
    throw util::DecodeError("state transfer too large");
  m.proposals.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i)
    m.proposals.push_back(bcast::decode_proposal_body(r));
  m.oal = bcast::Oal::decode(r);
  m.marks.delivered_below = r.var_u64();
  m.marks.delivered = decode_pid_list(r);
  auto decode_seq_map = [&r]() {
    const std::uint64_t n = r.var_u64();
    if (n > 1 << 16) throw util::DecodeError("seq map too large");
    std::vector<std::pair<ProcessId, ProposalSeq>> out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      const ProcessId proposer = r.u32();
      const auto seq = static_cast<ProposalSeq>(r.var_u64());
      out.emplace_back(proposer, seq);
    }
    return out;
  };
  m.marks.ordered_below = decode_seq_map();
  m.marks.forgotten_below = decode_seq_map();
  r.expect_done();
  return m;
}

std::vector<std::byte> RejoinRequest::encode() const {
  util::ByteWriter w(util::BufferPool::local());
  w.u8(net::kind_byte(net::MsgKind::rejoin_request));
  w.var_i64(send_ts);
  return std::move(w).take();
}

RejoinRequest RejoinRequest::decode(util::ByteReader& r) {
  RejoinRequest m;
  m.send_ts = r.var_i64();
  r.expect_done();
  return m;
}

}  // namespace tw::gms
