// A replicated key-value store on the timewheel group communication
// service — the paper's motivating use case (§1: "a dependable service
// implemented by a team of replicated servers" that "maintain a consistent
// replicated service state and, if one member fails, the others form a new
// group and continue to provide the service").
//
// Each replica applies totally-ordered SET/DEL commands; the state-transfer
// hooks serialize the whole map so a crashed replica catches up on rejoin.
// The demo crashes a replica mid-stream, keeps writing, recovers it, and
// proves all replicas (including the rejoined one) end bit-identical.
//
//   ./build/examples/replicated_kv
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gms/timewheel_node.hpp"
#include "net/sim_transport.hpp"
#include "util/bytes.hpp"

using namespace tw;

namespace {

/// One replica: a string map driven by delivered commands.
class KvReplica {
 public:
  explicit KvReplica(ProcessId id) : id_(id) {}

  gms::AppCallbacks callbacks() {
    gms::AppCallbacks app;
    app.deliver = [this](const bcast::Proposal& p, Ordinal) { apply(p); };
    app.get_state = [this] { return serialize(); };
    app.set_state = [this](std::span<const std::byte> bytes) {
      deserialize(bytes);
    };
    app.view_change = [this](GroupId, util::ProcessSet members) {
      members_ = members;
    };
    return app;
  }

  static std::vector<std::byte> encode_set(const std::string& key,
                                           const std::string& value) {
    util::ByteWriter w;
    w.u8(1);
    w.str(key);
    w.str(value);
    return std::move(w).take();
  }

  static std::vector<std::byte> encode_del(const std::string& key) {
    util::ByteWriter w;
    w.u8(2);
    w.str(key);
    return std::move(w).take();
  }

  [[nodiscard]] const std::map<std::string, std::string>& data() const {
    return data_;
  }
  [[nodiscard]] util::ProcessSet members() const { return members_; }
  [[nodiscard]] std::uint64_t applied() const { return applied_; }

 private:
  void apply(const bcast::Proposal& p) {
    util::ByteReader r(p.payload);
    const std::uint8_t op = r.u8();
    const std::string key = r.str();
    if (op == 1) {
      data_[key] = r.str();
    } else {
      data_.erase(key);
    }
    ++applied_;
  }

  std::vector<std::byte> serialize() const {
    util::ByteWriter w;
    w.var_u64(applied_);
    w.var_u64(data_.size());
    for (const auto& [k, v] : data_) {
      w.str(k);
      w.str(v);
    }
    return std::move(w).take();
  }

  void deserialize(std::span<const std::byte> bytes) {
    util::ByteReader r(bytes);
    applied_ = r.var_u64();
    data_.clear();
    const std::uint64_t n = r.var_u64();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::string k = r.str();
      data_[k] = r.str();
    }
  }

  ProcessId id_;
  std::map<std::string, std::string> data_;
  util::ProcessSet members_;
  std::uint64_t applied_ = 0;
};

}  // namespace

int main() {
  constexpr int kTeam = 5;
  net::SimClusterConfig cluster_cfg;
  cluster_cfg.n = kTeam;
  cluster_cfg.seed = 99;
  net::SimCluster cluster(cluster_cfg);

  std::vector<std::unique_ptr<KvReplica>> replicas;
  std::vector<std::unique_ptr<gms::TimewheelNode>> nodes;
  for (ProcessId p = 0; p < kTeam; ++p) {
    replicas.push_back(std::make_unique<KvReplica>(p));
    nodes.push_back(std::make_unique<gms::TimewheelNode>(
        cluster.endpoint(p), gms::NodeConfig{}, replicas[p]->callbacks()));
    cluster.bind(p, *nodes.back());
  }
  cluster.start();
  cluster.run_until(sim::sec(2));
  std::printf("group formed: %s\n",
              replicas[0]->members().to_string().c_str());

  auto set = [&](ProcessId via, const std::string& k, const std::string& v) {
    nodes[via]->try_propose(KvReplica::encode_set(k, v), bcast::Order::total);
  };
  auto del = [&](ProcessId via, const std::string& k) {
    nodes[via]->try_propose(KvReplica::encode_del(k), bcast::Order::total);
  };

  std::printf("writing initial keys through different replicas...\n");
  set(0, "user:1", "ada");
  set(1, "user:2", "grace");
  set(2, "user:3", "edsger");
  cluster.run_until(cluster.now() + sim::msec(500));

  std::printf("crashing replica 3, then writing more...\n");
  cluster.processes().crash(3);
  set(0, "user:4", "barbara");
  del(1, "user:3");
  set(4, "user:1", "ada lovelace");
  cluster.run_until(cluster.now() + sim::sec(3));
  std::printf("surviving view: %s\n",
              replicas[0]->members().to_string().c_str());

  std::printf("recovering replica 3 (state transfer catches it up)...\n");
  cluster.processes().recover(3);
  cluster.run_until(cluster.now() + sim::sec(5));
  std::printf("healed view: %s\n",
              replicas[0]->members().to_string().c_str());

  set(3, "user:5", "donald");  // the rejoined replica serves writes again
  cluster.run_until(cluster.now() + sim::sec(1));

  std::printf("\nfinal store contents per replica:\n");
  bool consistent = true;
  for (ProcessId p = 0; p < kTeam; ++p) {
    std::printf("  replica %u (applied %llu):", p,
                static_cast<unsigned long long>(replicas[p]->applied()));
    for (const auto& [k, v] : replicas[p]->data())
      std::printf(" %s=%s", k.c_str(), v.c_str());
    std::printf("\n");
    if (replicas[p]->data() != replicas[0]->data()) consistent = false;
  }
  if (!consistent) {
    std::printf("REPLICA DIVERGENCE!\n");
    return 1;
  }
  std::printf("\nall %d replicas identical, including the one that crashed "
              "and rejoined. done.\n",
              kTeam);
  return 0;
}
