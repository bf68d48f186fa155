#include "fuzz/runner.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "newtop/recovery_manager.hpp"
#include "newtop/world.hpp"
#include "util/check.hpp"

namespace newtop::fuzz {

using namespace sim_literals;

namespace {

/// Deterministic stateless servant: replies echo the request payload, so
/// execution order across replicas never changes reply values and any
/// reply-set disagreement the oracle sees is the protocol's fault.
class EchoServant : public GroupServant {
public:
    Bytes handle(std::uint32_t, const Bytes& args) override { return args; }
};

LinkParams to_params(const LinkSpec& link) {
    return LinkParams{.latency = static_cast<SimDuration>(link.latency_us),
                      .jitter = static_cast<SimDuration>(link.jitter_us),
                      .loss = link.loss,
                      .bytes_per_us = link.bytes_per_us};
}

std::string service_name(int j) { return "svc" + std::to_string(j); }

}  // namespace

std::vector<std::string> check_call_liveness(const std::vector<obs::TraceEvent>& events,
                                             const std::set<std::uint64_t>& exempt) {
    // (trace, actor) -> sim time the call was first seen; erased on any
    // terminal event.  Per-actor keys keep group-origin calls (one trace,
    // many issuing clients) individually accountable.
    std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> open;
    for (const obs::TraceEvent& e : events) {
        const std::pair<std::uint64_t, std::uint64_t> key{e.trace, e.actor};
        switch (e.kind) {
            case obs::TraceKind::kRequestQueued:
            case obs::TraceKind::kRequestSent:
                open.try_emplace(key, e.at);
                break;
            case obs::TraceKind::kCallCompleted:
            case obs::TraceKind::kCallFailed:
            case obs::TraceKind::kCallTimedOut:
                open.erase(key);
                break;
            default: break;
        }
    }
    std::vector<std::string> failures;
    for (const auto& [key, at] : open) {
        if (exempt.contains(key.second)) continue;
        failures.push_back("call trace " + std::to_string(key.first) + " issued by endpoint " +
                           std::to_string(key.second) + " at t=" + std::to_string(at) +
                           "us never completed, failed or timed out");
    }
    return failures;
}

std::string RunResult::report() const {
    std::string out;
    if (!invariant.empty()) {
        out += "invariant: seed " + std::to_string(seed) + ": " + invariant + "\n";
    }
    if (trace_dropped > 0) {
        out += "trace_overflow: ring dropped " + std::to_string(trace_dropped) +
               " events; verdict unreliable, raise RunOptions::trace_capacity\n";
    }
    out += obs::ProtocolOracle::report(violations);
    for (const std::string& failure : liveness_failures) {
        out += "liveness: " + failure + "\n";
    }
    return out;
}

namespace {

RunResult run_unguarded(const Scenario& scenario, const RunOptions& options) {
    NEWTOP_EXPECTS(!scenario.services.empty(), "scenario needs at least one service");
    NEWTOP_EXPECTS(scenario.sites >= 1, "scenario needs at least one site");

    // -- world ---------------------------------------------------------------
    Topology topology;
    for (int sidx = 0; sidx < scenario.sites; ++sidx) {
        topology.add_site("site" + std::to_string(sidx), to_params(scenario.lan));
    }
    for (int a = 0; a < scenario.sites; ++a) {
        for (int b = a + 1; b < scenario.sites; ++b) {
            topology.set_link(SiteId(static_cast<SiteId::rep_type>(a)),
                              SiteId(static_cast<SiteId::rep_type>(b)),
                              to_params(scenario.wan));
        }
    }
    World world(std::move(topology), scenario.seed);
    Scheduler& scheduler = world.scheduler;
    Network& net = world.net;
    obs::RingTraceSink sink(options.trace_capacity);
    net.metrics().set_trace_sink(&sink);

    // -- servers -------------------------------------------------------------
    // Every server replica runs under a RecoveryManager so kRestart faults
    // exercise the real recovery pipeline: fresh NSO, re-serve, peer-group
    // rejoin, and (for joiners) the normal membership state machine.
    struct PeerJoin {
        std::string name;
        GroupConfig config;
    };
    struct ServerRt {
        std::unique_ptr<RecoveryManager> mgr;
        /// Peer groups this actor belongs to; the generation factory
        /// replays these joins after every restart.
        std::vector<PeerJoin> peer_specs;
        /// Current-generation peer handles (replaced on restart).
        std::map<std::string, PeerGroup> peer_by_name;
        bool restarted{false};  // targeted by a kRestart fault
    };
    std::vector<std::unique_ptr<ServerRt>> servers;  // Scenario::server_actor order
    for (std::size_t j = 0; j < scenario.services.size(); ++j) {
        const ServiceSpec& svc = scenario.services[j];
        GroupConfig config;
        config.order = svc.order;
        config.liveness = svc.liveness;
        const std::string name = service_name(static_cast<int>(j));
        for (const int site : svc.server_sites) {
            auto rt = std::make_unique<ServerRt>();
            ServerRt* raw = rt.get();
            auto factory = [raw, name, config](NewTopService& nso,
                                               std::function<void()> note_recovered) {
                nso.serve(name, config,
                          std::make_shared<RecoveryProbeServant>(
                              std::make_shared<EchoServant>(), std::move(note_recovered)));
                raw->peer_by_name.clear();
                for (const PeerJoin& peer : raw->peer_specs) {
                    raw->peer_by_name.emplace(
                        peer.name, nso.join_peer_group(peer.name, peer.config,
                                                       [](const NewTopService::PeerMessage&) {}));
                }
                RecoveryManager::Generation gen;
                gen.ready = [&nso, name] { return nso.invocation().serving(name); };
                return gen;
            };
            rt->mgr = std::make_unique<RecoveryManager>(
                net, world.directory, SiteId(static_cast<SiteId::rep_type>(site)),
                std::move(factory));
            servers.push_back(std::move(rt));
            world.run_for(300_ms);
        }
    }

    // -- clients -------------------------------------------------------------
    struct ClientRt {
        NewTopService* nso{nullptr};
        GroupProxy proxy;
        const ClientSpec* spec{nullptr};
        std::map<std::string, PeerGroup> peers;
        int issued{0};
        int done{0};
    };
    std::vector<std::unique_ptr<ClientRt>> clients;
    for (const ClientSpec& spec : scenario.clients) {
        auto rt = std::make_unique<ClientRt>();
        rt->nso = &world.add_nso(SiteId(static_cast<SiteId::rep_type>(spec.site)));
        rt->spec = &spec;
        BindOptions bind;
        bind.mode = spec.bind;
        bind.restricted = spec.restricted;
        bind.async_forwarding = spec.async_forwarding;
        bind.cs_order = spec.cs_order;
        bind.call_timeout = static_cast<SimDuration>(spec.call_timeout_us);
        rt->proxy = rt->nso->bind(service_name(spec.service), bind);
        clients.push_back(std::move(rt));
    }
    world.run_for(static_cast<SimDuration>(scenario.settle_us));

    // -- overlapping peer groups ----------------------------------------------
    const int total_servers = scenario.total_servers();
    for (std::size_t p = 0; p < scenario.peers.size(); ++p) {
        const PeerSpec& peer = scenario.peers[p];
        GroupConfig config;
        config.order = peer.order;
        config.liveness = LivenessMode::kLively;
        const std::string name = "peer" + std::to_string(p);
        for (const int member : peer.members) {
            const auto noop = [](const NewTopService::PeerMessage&) {};
            if (member < total_servers) {
                ServerRt& rt = *servers[static_cast<std::size_t>(member)];
                rt.peer_specs.push_back({name, config});
                rt.peer_by_name.emplace(name,
                                        rt.mgr->nso().join_peer_group(name, config, noop));
            } else {
                ClientRt& rt = *clients[static_cast<std::size_t>(member - total_servers)];
                rt.peers.emplace(name, rt.nso->join_peer_group(name, config, noop));
            }
            world.run_for(300_ms);
        }
    }
    world.run_for(500_ms);

    // -- workload ------------------------------------------------------------
    const SimTime start = scheduler.now();
    std::function<void(std::size_t)> issue = [&](std::size_t i) {
        ClientRt& rt = *clients[i];
        if (rt.issued >= rt.spec->calls) return;
        ++rt.issued;
        Bytes payload(rt.spec->payload_bytes,
                      static_cast<std::uint8_t>(rt.issued & 0xff));
        rt.proxy.invoke(1, std::move(payload), rt.spec->mode, [&, i](const GroupReply&) {
            ++rt.done;
            scheduler.schedule_after(static_cast<SimDuration>(rt.spec->think_us),
                                     [&, i] { issue(i); });
        });
    };
    for (std::size_t i = 0; i < clients.size(); ++i) {
        // Deterministic stagger so clients don't all fire on one tick.
        scheduler.schedule_after(static_cast<SimDuration>(i) * 7'000, [&, i] { issue(i); });
    }
    // Peer publishes spread evenly over the workload window.  Handles are
    // resolved at fire time: a restarted server publishes through its
    // current generation's handle (and skips the publish while its rejoin
    // is still in flight).
    auto publish_as = [&](int member, const std::string& name, int k) {
        PeerGroup* group = nullptr;
        if (member < total_servers) {
            auto& by_name = servers[static_cast<std::size_t>(member)]->peer_by_name;
            if (const auto it = by_name.find(name); it != by_name.end()) group = &it->second;
        } else {
            auto& peers = clients[static_cast<std::size_t>(member - total_servers)]->peers;
            if (const auto it = peers.find(name); it != peers.end()) group = &it->second;
        }
        if (group == nullptr || !group->joined()) return;
        const std::string text = "chaos" + std::to_string(k);
        group->publish(Bytes(text.begin(), text.end()));
    };
    for (std::size_t p = 0; p < scenario.peers.size(); ++p) {
        const PeerSpec& peer = scenario.peers[p];
        const std::string name = "peer" + std::to_string(p);
        for (const int member : peer.members) {
            for (int k = 0; k < peer.publishes_per_member; ++k) {
                const SimDuration at = static_cast<SimDuration>(
                    (static_cast<std::uint64_t>(k) + 1) * scenario.run_us /
                    (static_cast<std::uint64_t>(peer.publishes_per_member) + 1));
                scheduler.schedule_at(start + at,
                                      [&publish_as, member, name, k] { publish_as(member, name, k); });
            }
        }
    }

    // -- fault plan -----------------------------------------------------------
    std::set<std::uint64_t> exempt;  // endpoint ids of crashed clients
    for (const FaultSpec& fault : scenario.faults) {
        const SimTime at = start + static_cast<SimDuration>(fault.at_us);
        switch (fault.kind) {
            case FaultSpec::Kind::kCrashServer: {
                ServerRt& server = *servers[static_cast<std::size_t>(
                    scenario.server_actor(fault.a, fault.b))];
                NodeId node = server.mgr->node_id();
                scheduler.schedule_at(at, [&net, node] { net.crash(node); });
                break;
            }
            case FaultSpec::Kind::kRestart: {
                ServerRt& server = *servers[static_cast<std::size_t>(
                    scenario.server_actor(fault.a, fault.b))];
                server.restarted = true;
                NodeId node = server.mgr->node_id();
                scheduler.schedule_at(at, [&net, node] { net.restart(node, 0); });
                break;
            }
            case FaultSpec::Kind::kCrashClient: {
                ClientRt& rt = *clients[static_cast<std::size_t>(fault.a)];
                exempt.insert(rt.nso->id().value());
                NodeId node = rt.nso->orb().node_id();
                scheduler.schedule_at(at, [&net, node] { net.crash(node); });
                break;
            }
            case FaultSpec::Kind::kPartitionSite: {
                const SiteId site(static_cast<SiteId::rep_type>(fault.a));
                const int cell = fault.b;
                scheduler.schedule_at(at, [&net, site, cell] { net.partition_site(site, cell); });
                break;
            }
            case FaultSpec::Kind::kHeal:
                scheduler.schedule_at(at, [&net] { net.heal(); });
                break;
            case FaultSpec::Kind::kLossBurst: {
                const double loss = fault.loss;
                scheduler.schedule_at(at, [&net, loss] { net.set_extra_loss(loss); });
                scheduler.schedule_at(at + static_cast<SimDuration>(fault.duration_us),
                                      [&net] { net.set_extra_loss(0.0); });
                break;
            }
            case FaultSpec::Kind::kSlowNode: {
                ServerRt& server = *servers[static_cast<std::size_t>(
                    scenario.server_actor(fault.a, fault.b))];
                NodeId node = server.mgr->node_id();
                const double factor = fault.loss;
                scheduler.schedule_at(at,
                                      [&net, node, factor] { net.set_cpu_slowdown(node, factor); });
                scheduler.schedule_at(at + static_cast<SimDuration>(fault.duration_us),
                                      [&net, node] { net.set_cpu_slowdown(node, 1.0); });
                break;
            }
            case FaultSpec::Kind::kLinkDegrade: {
                const SiteId sa(static_cast<SiteId::rep_type>(fault.a));
                const SiteId sb(static_cast<SiteId::rep_type>(fault.b));
                LinkDegrade degrade;
                degrade.extra_latency = static_cast<SimDuration>(fault.extra_us);
                degrade.extra_jitter = static_cast<SimDuration>(fault.extra_us / 4);
                degrade.extra_loss = fault.loss;
                scheduler.schedule_at(
                    at, [&net, sa, sb, degrade] { net.set_link_degrade(sa, sb, degrade); });
                scheduler.schedule_at(at + static_cast<SimDuration>(fault.duration_us),
                                      [&net, sa, sb] { net.clear_link_degrade(sa, sb); });
                break;
            }
            case FaultSpec::Kind::kFlap:
                // schedule_flap lays out every transition up front; the last
                // one always rejoins the site, so flaps are self-healing.
                net.schedule_flap(SiteId(static_cast<SiteId::rep_type>(fault.a)), at, fault.b,
                                  static_cast<SimDuration>(fault.extra_us),
                                  static_cast<SimDuration>(fault.extra_us), /*cell=*/9);
                break;
            case FaultSpec::Kind::kReconfigure: {
                // Resolved at fire time: the first live, installed replica of
                // the service proposes a runtime switch of the group's
                // total-order protocol through the group's own ordered
                // stream.  If every replica is down or mid-rejoin the fault
                // is a no-op — exactly what a real operator's request would
                // be against an unreachable group.
                const int j = fault.a;
                const OrderMode target = fault.b == 0 ? OrderMode::kTotalAsymmetric
                                                      : OrderMode::kTotalSymmetric;
                scheduler.schedule_at(at, [&, j, target] {
                    const auto* info = world.directory.find_group(service_name(j));
                    if (info == nullptr) return;
                    const int replicas = static_cast<int>(
                        scenario.services[static_cast<std::size_t>(j)].server_sites.size());
                    for (int k = 0; k < replicas; ++k) {
                        ServerRt& server = *servers[static_cast<std::size_t>(
                            scenario.server_actor(j, k))];
                        if (net.node(server.mgr->node_id()).crashed()) continue;
                        GroupCommEndpoint& gc = server.mgr->nso().group_comm();
                        if (!gc.is_member(info->id)) continue;
                        const GroupConfig* current = gc.group_config(info->id);
                        if (current == nullptr || current->order == target) return;
                        GroupConfig next = *current;
                        next.order = target;
                        gc.reconfigure(info->id, next);
                        return;
                    }
                });
                break;
            }
        }
    }

    // -- run + drain -----------------------------------------------------------
    scheduler.run_until(start + static_cast<SimDuration>(scenario.run_us));
    world.run_for(static_cast<SimDuration>(scenario.drain_us));
    // Bounded extra windows: a still-working scenario (slow rebind chains,
    // a restarted replica mid-resync) gets time to finish; a genuine hang
    // survives them and is reported.
    auto recovery_pending = [&] {
        for (const auto& rt : servers) {
            if (rt->restarted && !net.node(rt->mgr->node_id()).crashed() &&
                !rt->mgr->recovered()) {
                return true;
            }
        }
        return false;
    };
    for (int guard = 0; guard < 8; ++guard) {
        bool all_done = !recovery_pending();
        for (const auto& rt : clients) {
            if (exempt.contains(rt->nso->id().value())) continue;
            all_done &= rt->done >= rt->spec->calls;
        }
        if (all_done) break;
        world.run_for(5_s);
    }

    std::vector<obs::TraceEvent> events = sink.snapshot();
    if (options.mutator) options.mutator(events);

    // -- checks ----------------------------------------------------------------
    obs::OracleOptions oracle_options;
    for (std::size_t j = 0; j < scenario.services.size(); ++j) {
        if (scenario.services[j].order != OrderMode::kCausal) continue;
        const auto* info = world.directory.find_group(service_name(static_cast<int>(j)));
        if (info != nullptr) oracle_options.causal_groups.insert(info->id.value());
    }
    for (std::size_t p = 0; p < scenario.peers.size(); ++p) {
        if (scenario.peers[p].order != OrderMode::kCausal) continue;
        const auto* info = world.directory.find_group("peer" + std::to_string(p));
        if (info != nullptr) oracle_options.causal_groups.insert(info->id.value());
    }

    RunResult result;
    result.seed = scenario.seed;
    result.trace_events = static_cast<std::uint64_t>(events.size());
    result.trace_dropped = sink.dropped();
    result.violations = obs::ProtocolOracle(oracle_options).check(events);
    result.liveness_failures = check_call_liveness(events, exempt);
    // Resync liveness: every replica a kRestart fault brought back must end
    // the run recovered (rejoined its server group and serving), unless a
    // later crash took it down again.
    for (std::size_t idx = 0; idx < servers.size(); ++idx) {
        const ServerRt& rt = *servers[idx];
        if (!rt.restarted) continue;
        if (net.node(rt.mgr->node_id()).crashed()) continue;
        if (!rt.mgr->recovered()) {
            result.liveness_failures.push_back(
                "recovery: server actor " + std::to_string(idx) + " (endpoint " +
                std::to_string(rt.mgr->endpoint().value()) +
                ") restarted but never rejoined its server group");
        }
    }
    // Gray-failure stability: slowdowns, sick links and flaps all end, and
    // none of them kills a process — so after the drain every service with
    // a live replica must still have at least one replica serving.  A
    // suspicion/rejoin livelock (the detector ejecting slow-but-alive
    // members faster than they can come back) shows up here.
    const bool has_gray = std::any_of(
        scenario.faults.begin(), scenario.faults.end(), [](const FaultSpec& f) {
            return f.kind == FaultSpec::Kind::kSlowNode ||
                   f.kind == FaultSpec::Kind::kLinkDegrade || f.kind == FaultSpec::Kind::kFlap;
        });
    if (has_gray) {
        for (std::size_t j = 0; j < scenario.services.size(); ++j) {
            const std::string name = service_name(static_cast<int>(j));
            const int replicas =
                static_cast<int>(scenario.services[j].server_sites.size());
            bool any_live = false;
            bool any_serving = false;
            for (int k = 0; k < replicas; ++k) {
                const ServerRt& rt = *servers[static_cast<std::size_t>(
                    scenario.server_actor(static_cast<int>(j), k))];
                if (net.node(rt.mgr->node_id()).crashed()) continue;
                any_live = true;
                if (rt.mgr->nso().invocation().serving(name)) any_serving = true;
            }
            if (any_live && !any_serving) {
                result.liveness_failures.push_back(
                    "gray: service " + name +
                    " has live replicas but none serving after the faults cleared");
            }
        }
    }
    if (options.keep_trace) result.trace = std::move(events);
    return result;
}

}  // namespace

RunResult run_scenario(const Scenario& scenario, const RunOptions& options) {
    try {
        return run_unguarded(scenario, options);
    } catch (const InvariantError& err) {
        // A protocol invariant (NEWTOP_ENSURES) fired mid-run: a failing
        // verdict like any oracle violation, so the campaign shrinks and
        // replays it instead of dying.  The half-run world is gone; only
        // the seed and the message survive.
        RunResult result;
        result.seed = scenario.seed;
        result.invariant = err.what();
        return result;
    }
}

}  // namespace newtop::fuzz
