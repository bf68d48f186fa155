// Quickstart: a replicated random-number service — the same service the
// paper benchmarks (§5.1) — served by three active replicas and invoked by
// a client through the NewTop object group service.
//
//   $ ./quickstart
//
// Walks through: building a simulated LAN, starting servers, binding a
// client with the open-group approach, and the four invocation primitives.
#include <cstdio>
#include <memory>

#include "net/calibration.hpp"
#include "newtop/world.hpp"

using namespace newtop;
using namespace newtop::sim_literals;

namespace {

constexpr std::uint32_t kDraw = 1;  // draw a pseudo-random number

/// The paper's benchmark servant: returns a pseudo-random number.
class RandomServant : public GroupServant {
public:
    explicit RandomServant(std::uint64_t seed) : rng_(seed) {}

    Bytes handle(std::uint32_t method, const Bytes&) override {
        if (method != kDraw) throw ServantError("unknown method");
        return encode_to_bytes(rng_.next_u64() % 1000);
    }

private:
    Rng rng_;
};

}  // namespace

int main() {
    // 1. A simulated fast-Ethernet LAN (see DESIGN.md for the calibration):
    //    the scheduler, the network every host shares and the directory.
    World world(calibration::make_lan_topology(), /*seed=*/2026);

    // 2. Three server hosts, each running an ORB, a NewTop service object
    //    and a replica of the random-number servant.  All replicas draw
    //    from the same seed, so active replication keeps them identical.
    GroupConfig server_config;
    server_config.order = OrderMode::kTotalAsymmetric;  // best for request-reply (§5)

    for (int i = 0; i < 3; ++i) {
        world.add_nso().serve("random", server_config, std::make_shared<RandomServant>(42));
        world.run_for(200_ms);  // let the member join
    }
    std::printf("server group 'random' is up with 3 members\n");

    // 3. A client host binds with the open-group approach: it forms a
    //    client/server group with one member (the request manager).
    GroupProxy proxy = world.add_nso().bind("random", {.mode = BindMode::kOpen});

    // 4. The four invocation primitives (§2.1).
    auto print_reply = [](const char* label) {
        return [label](const GroupReply& reply) {
            std::printf("%-14s -> %zu replies (complete=%d)", label, reply.replies.size(),
                        reply.complete ? 1 : 0);
            if (const Bytes* value = reply.first_value()) {
                std::printf(", first value = %llu",
                            static_cast<unsigned long long>(
                                decode_from_bytes<std::uint64_t>(*value)));
            }
            std::printf("\n");
        };
    };

    proxy.invoke(kDraw, {}, InvocationMode::kWaitFirst, print_reply("wait-first"));
    world.run_for(1_s);
    proxy.invoke(kDraw, {}, InvocationMode::kWaitMajority, print_reply("wait-majority"));
    world.run_for(1_s);
    proxy.invoke(kDraw, {}, InvocationMode::kWaitAll, print_reply("wait-all"));
    world.run_for(1_s);
    proxy.one_way(kDraw, {});
    std::printf("one-way        -> fire and forget\n");
    world.run_for(1_s);

    // 5. Fault tolerance: kill the request manager mid-flight; the smart
    //    proxy rebinds to another member and the retry is answered from the
    //    servers' reply caches without re-execution.
    const EndpointId manager = *proxy.manager();
    for (const auto& nso : world.nsos) {
        if (nso->id() == manager) {
            world.net.crash(nso->orb().node_id());
            std::printf("crashed the request manager (endpoint %llu)\n",
                        static_cast<unsigned long long>(manager.value()));
        }
    }
    proxy.invoke(kDraw, {}, InvocationMode::kWaitAll, print_reply("after crash"));
    world.run_for(10_s);
    std::printf("rebinds performed: %llu\n",
                static_cast<unsigned long long>(proxy.rebinds()));
    return 0;
}
