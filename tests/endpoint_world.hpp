// Shared test fixtures on World (src/newtop/world.hpp): a world of
// group-communication endpoints that records every endpoint's deliveries and
// oracle-checks the whole trace (trace_oracle.hpp), the payload helpers its
// tests use, call() for invocation tests and a stateful register servant
// for the replication and recovery tests.
#pragma once

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "gcs/endpoint.hpp"
#include "newtop/world.hpp"
#include "replication/stateful_servant.hpp"
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

struct EndpointWorld : World {
    using World::World;

    std::size_t add_endpoint(SiteId site = SiteId(0)) {
        auto ep = std::make_unique<GroupCommEndpoint>(add_orb(site), directory);
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

    OracleScope oracle{net.metrics()};
    std::vector<std::unique_ptr<GroupCommEndpoint>> endpoints;
    std::vector<std::vector<std::string>> delivered;
};

/// Runs one invocation to completion within `budget` of simulated time
/// (5 s by default).
inline GroupReply call(World& world, GroupProxy& proxy, std::uint32_t method, Bytes args,
                       InvocationMode mode, SimDuration budget = 5'000'000) {
    GroupReply out;
    bool done = false;
    proxy.invoke(method, std::move(args), mode, [&](const GroupReply& r) {
        out = r;
        done = true;
    });
    world.run_for(budget);
    EXPECT_TRUE(done) << "call did not complete";
    return out;
}

inline constexpr std::uint32_t kGet = 1;
inline constexpr std::uint32_t kAppend = 2;

/// A stateful register: an append-only string, snapshot = contents.
class RegisterServant : public StatefulServant {
public:
    Bytes handle(std::uint32_t method, const Bytes& args) override {
        switch (method) {
            case kGet: return encode_to_bytes(contents_);
            case kAppend:
                ++executions;
                contents_ += decode_from_bytes<std::string>(args);
                return encode_to_bytes(contents_);
            default: throw ServantError("no such method");
        }
    }

    [[nodiscard]] Bytes snapshot() const override { return encode_to_bytes(contents_); }
    void restore(const Bytes& snapshot) override {
        contents_ = decode_from_bytes<std::string>(snapshot);
    }

    [[nodiscard]] const std::string& contents() const { return contents_; }
    int executions{0};

private:
    std::string contents_;
};

}  // namespace newtop::test
