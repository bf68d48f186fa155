// A replicated key-value store: the classic "management of replicated data
// for high availability" application of object groups (§1 of the paper).
//
// Three stateful replicas (active replication + state transfer), a WAN
// client bound with the open-group approach, a replica joining mid-life,
// and a crash that the group absorbs.
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "replication/active_replica.hpp"

using namespace newtop;
using namespace newtop::sim_literals;

namespace {

constexpr std::uint32_t kPut = 1;
constexpr std::uint32_t kGet = 2;
constexpr std::uint32_t kSize = 3;

class KvServant : public StatefulServant {
public:
    Bytes handle(std::uint32_t method, const Bytes& args) override {
        Decoder d(args);
        switch (method) {
            case kPut: {
                std::string key, value;
                decode(d, key);
                decode(d, value);
                data_[key] = value;
                return encode_to_bytes(true);
            }
            case kGet: {
                std::string key;
                decode(d, key);
                const auto it = data_.find(key);
                if (it == data_.end()) throw ServantError("no such key: " + key);
                return encode_to_bytes(it->second);
            }
            case kSize:
                return encode_to_bytes(static_cast<std::uint64_t>(data_.size()));
            default:
                throw ServantError("unknown method");
        }
    }

    [[nodiscard]] Bytes snapshot() const override { return encode_to_bytes(data_); }
    void restore(const Bytes& snapshot) override {
        data_ = decode_from_bytes<std::map<std::string, std::string>>(snapshot);
    }

private:
    std::map<std::string, std::string> data_;
};

Bytes put_args(const std::string& key, const std::string& value) {
    Encoder e;
    encode(e, key);
    encode(e, value);
    return std::move(e).take();
}

}  // namespace

int main() {
    auto sites = calibration::make_paper_topology();
    World world(std::move(sites.topology), /*seed=*/99);

    GroupConfig config;
    config.order = OrderMode::kTotalAsymmetric;
    config.liveness = LivenessMode::kLively;  // replicas watch each other

    // Three replicas on the Newcastle LAN.
    std::vector<std::shared_ptr<KvServant>> stores;
    std::vector<std::unique_ptr<ActiveReplica>> replicas;
    auto add_replica = [&] {
        NewTopService& nso = world.add_nso(sites.newcastle);
        stores.push_back(std::make_shared<KvServant>());
        replicas.push_back(std::make_unique<ActiveReplica>(nso, "kv", config, stores.back()));
        world.run_for(500_ms);
    };
    add_replica();
    add_replica();
    add_replica();
    std::printf("kv store up: 3 replicas in Newcastle\n");

    // A client in Pisa: high-latency path, so the open-group approach.
    GroupProxy kv =
        world.add_nso(sites.pisa).bind("kv", {.mode = BindMode::kOpen, .restricted = true});

    int pending = 0;
    auto wait_done = [&] { world.run_for(2_s); };
    auto put = [&](const std::string& key, const std::string& value) {
        ++pending;
        kv.invoke(kPut, put_args(key, value), InvocationMode::kWaitMajority,
                  [&pending, key](const GroupReply& reply) {
                      --pending;
                      std::printf("put %-8s -> %s\n", key.c_str(),
                                  reply.complete ? "committed (majority acked)" : "FAILED");
                  });
        wait_done();
    };
    auto get = [&](const std::string& key) {
        kv.invoke(kGet, encode_to_bytes(key), InvocationMode::kWaitFirst,
                  [key](const GroupReply& reply) {
                      if (const Bytes* value = reply.first_value()) {
                          std::printf("get %-8s -> %s\n", key.c_str(),
                                      decode_from_bytes<std::string>(*value).c_str());
                      } else {
                          std::printf("get %-8s -> <error>\n", key.c_str());
                      }
                  });
        wait_done();
    };

    put("city", "Newcastle");
    put("venue", "DSN 2000");
    get("city");

    // Grow the group: the new replica state-transfers before serving.
    std::printf("adding a fourth replica...\n");
    add_replica();
    world.run_for(3_s);
    std::printf("replica 4 synced: %s\n", replicas[3]->synced() ? "yes" : "no");

    // Kill one replica; the group masks it.
    world.net.crash(world.orbs[1]->node_id());
    std::printf("crashed replica 2; writing through the fault...\n");
    put("status", "still-up");
    world.run_for(5_s);
    get("status");

    std::printf("replica sizes: ");
    for (std::size_t i = 0; i < stores.size(); ++i) {
        if (i == 1) continue;  // crashed
        const std::uint64_t n =
            decode_from_bytes<std::uint64_t>(stores[i]->handle(kSize, {}));
        std::printf("r%zu=%llu ", i + 1, static_cast<unsigned long long>(n));
    }
    std::printf("\n");
    return 0;
}
