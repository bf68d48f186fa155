// Shared GCS test fixture: a simulated world of group-communication
// endpoints that records every endpoint's deliveries and oracle-checks the
// whole trace (trace_oracle.hpp), plus the payload helpers its tests use.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "gcs/endpoint.hpp"
#include "trace_oracle.hpp"

namespace newtop::test {

inline Bytes payload_of(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Labels like "m3" or "m1.4", built by appending in place: GCC 12 raises
/// -Wrestrict false positives on `"m" + std::to_string(k)` once the Release
/// build's optimiser inlines std::string::insert.
template <typename... Parts>
std::string label(const Parts&... parts) {
    std::string out;
    const auto append = [&out](const auto& part) {
        if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(part)>>) {
            out += std::to_string(part);
        } else {
            out += part;
        }
    };
    (append(parts), ...);
    return out;
}

inline GroupConfig lively(OrderMode order) {
    GroupConfig cfg;
    cfg.order = order;
    cfg.liveness = LivenessMode::kLively;
    return cfg;
}

struct EndpointWorld {
    EndpointWorld(Topology topology, std::uint64_t seed)
        : net(scheduler, std::move(topology), seed) {}

    std::size_t add_endpoint(SiteId site = SiteId(0)) {
        const NodeId node = net.add_node(site);
        orbs.push_back(std::make_unique<Orb>(net, node));
        auto ep = std::make_unique<GroupCommEndpoint>(*orbs.back(), directory);
        const std::size_t index = endpoints.size();
        delivered.emplace_back();
        ep->set_deliver_handler([this, index](const GroupCommEndpoint::Delivery& d) {
            delivered[index].push_back(std::string(d.payload.begin(), d.payload.end()));
        });
        endpoints.push_back(std::move(ep));
        return index;
    }

    /// Grows group "g" to `n` members on fresh endpoints: the first creates
    /// it with `config`, each later one joins, 300 ms apart.
    GroupId make_group(std::size_t n, const GroupConfig& config) {
        using namespace sim_literals;
        GroupId g;
        for (std::size_t i = 0; i < n; ++i) {
            const auto idx = add_endpoint();
            if (i == 0) {
                g = ep(idx).create_group("g", config);
            } else {
                ep(idx).join_group("g");
            }
            run_for(300_ms);
        }
        return g;
    }

    GroupCommEndpoint& ep(std::size_t i) { return *endpoints[i]; }
    NodeId node_of(std::size_t i) { return orbs[i]->node_id(); }
    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    Scheduler scheduler;
    Network net;
    OracleScope oracle{net.metrics()};
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    std::vector<std::vector<std::string>> delivered;
};

}  // namespace newtop::test
