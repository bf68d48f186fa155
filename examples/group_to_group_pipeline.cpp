// Group-to-group invocation (§4.3, fig. 6): a replicated front-end group gx
// calls a replicated back-end group gy through a client monitor group gz.
//
// The front-end replicas each issue the *same* call; the request manager
// filters the duplicates, forwards one copy into the back-end group, and
// multicasts the gathered replies in gz so every front-end member receives
// them atomically — the whole pipeline stays replica-consistent.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/world.hpp"

using namespace newtop;
using namespace newtop::sim_literals;

namespace {

constexpr std::uint32_t kAudit = 1;

/// Back-end: an audit log that counts entries.
class AuditServant : public GroupServant {
public:
    Bytes handle(std::uint32_t method, const Bytes& args) override {
        if (method != kAudit) throw ServantError("unknown method");
        ++entries;
        const auto line = decode_from_bytes<std::string>(args);
        return encode_to_bytes("logged#" + std::to_string(entries) + ": " + line);
    }
    int entries{0};
};

}  // namespace

int main() {
    World world(calibration::make_lan_topology(), /*seed=*/5);

    // Back-end group gy: two audit servers.
    GroupConfig config;
    config.order = OrderMode::kTotalAsymmetric;
    std::vector<std::shared_ptr<AuditServant>> audits;
    for (int i = 0; i < 2; ++i) {
        audits.push_back(std::make_shared<AuditServant>());
        world.add_nso().serve("audit", config, audits.back());
        world.run_for(300_ms);
    }
    std::printf("back-end group 'audit' up with 2 members\n");

    // Front-end group gx: two members that process the same inputs.
    GroupConfig gx_config;
    gx_config.order = OrderMode::kTotalSymmetric;
    NewTopService& fe1 = world.add_nso();
    const GroupId gx = fe1.group_comm().create_group("frontend", gx_config);
    NewTopService& fe2 = world.add_nso();
    fe2.group_comm().join_group("frontend");
    world.run_for(500_ms);
    std::printf("front-end group 'frontend' up with 2 members\n");

    // Each front-end member binds the *group* to the back-end.
    std::vector<GroupProxy> proxies;
    for (NewTopService* fe : {&fe1, &fe2}) proxies.push_back(fe->bind_group(gx, "audit"));
    world.run_for(1_s);

    // Both members issue the same logical call; the replies come back to
    // both, and the back-end executed it once per replica (not per caller).
    int deliveries = 0;
    for (std::size_t i = 0; i < proxies.size(); ++i) {
        proxies[i].invoke(kAudit, encode_to_bytes(std::string("order #1001 shipped")),
                          InvocationMode::kWaitAll, [&deliveries, i](const GroupReply& reply) {
                              ++deliveries;
                              std::printf("front-end %zu received %zu replies: %s\n", i,
                                          reply.replies.size(),
                                          reply.first_value()
                                              ? decode_from_bytes<std::string>(
                                                    *reply.first_value())
                                                    .c_str()
                                              : "<none>");
                          });
    }
    world.run_for(3_s);

    std::printf("replies delivered to %d front-end members\n", deliveries);
    std::printf("back-end executions: replica1=%d replica2=%d (each exactly once)\n",
                audits[0]->entries, audits[1]->entries);
    const bool ok = deliveries == 2 && audits[0]->entries == 1 && audits[1]->entries == 1;
    std::printf("pipeline invariant holds: %s\n", ok ? "yes" : "NO");
    return ok ? 0 : 1;
}
