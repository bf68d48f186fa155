#include "fuzz/campaign.hpp"

#include <algorithm>

namespace newtop::fuzz {

namespace {

/// Remove peer-group member references to flattened actor `index` and
/// shift the ones above it down (used when a server replica or client is
/// removed from the scenario).
void remove_actor_from_peers(Scenario& s, int index) {
    for (PeerSpec& peer : s.peers) {
        std::erase(peer.members, index);
        for (int& member : peer.members) {
            if (member > index) --member;
        }
    }
    std::erase_if(s.peers, [](const PeerSpec& peer) { return peer.members.size() < 2; });
}

/// Faults addressed by (service, replica) — crash/restart pairs must be
/// erased and renumbered together when the shrinker drops replicas.
bool targets_replica(const FaultSpec& fault) {
    return fault.kind == FaultSpec::Kind::kCrashServer ||
           fault.kind == FaultSpec::Kind::kRestart;
}

/// Faults whose `a` operand is a service index.  kReconfigure has no
/// replica operand, so it only participates in service-level erasure and
/// renumbering, never in without_replica's `b` adjustments.
bool targets_service(const FaultSpec& fault) {
    return targets_replica(fault) || fault.kind == FaultSpec::Kind::kReconfigure;
}

Scenario without_fault(Scenario s, std::size_t f) {
    s.faults.erase(s.faults.begin() + static_cast<std::ptrdiff_t>(f));
    return s;
}

Scenario without_client(Scenario s, std::size_t i) {
    remove_actor_from_peers(s, s.total_servers() + static_cast<int>(i));
    s.clients.erase(s.clients.begin() + static_cast<std::ptrdiff_t>(i));
    std::erase_if(s.faults, [&](const FaultSpec& fault) {
        return fault.kind == FaultSpec::Kind::kCrashClient &&
               fault.a == static_cast<int>(i);
    });
    for (FaultSpec& fault : s.faults) {
        if (fault.kind == FaultSpec::Kind::kCrashClient && fault.a > static_cast<int>(i)) {
            --fault.a;
        }
    }
    return s;
}

Scenario without_peer(Scenario s, std::size_t p) {
    s.peers.erase(s.peers.begin() + static_cast<std::ptrdiff_t>(p));
    return s;
}

Scenario without_replica(Scenario s, std::size_t j, std::size_t k) {
    remove_actor_from_peers(
        s, s.server_actor(static_cast<int>(j), static_cast<int>(k)));
    ServiceSpec& svc = s.services[j];
    svc.server_sites.erase(svc.server_sites.begin() + static_cast<std::ptrdiff_t>(k));
    std::erase_if(s.faults, [&](const FaultSpec& fault) {
        return targets_replica(fault) && fault.a == static_cast<int>(j) &&
               fault.b == static_cast<int>(k);
    });
    for (FaultSpec& fault : s.faults) {
        if (targets_replica(fault) && fault.a == static_cast<int>(j) &&
            fault.b > static_cast<int>(k)) {
            --fault.b;
        }
    }
    return s;
}

Scenario without_service(Scenario s, std::size_t j) {
    // Only valid when no client references service j.
    for (int k = static_cast<int>(s.services[j].server_sites.size()) - 1; k >= 0; --k) {
        remove_actor_from_peers(s, s.server_actor(static_cast<int>(j), k));
    }
    s.services.erase(s.services.begin() + static_cast<std::ptrdiff_t>(j));
    for (ClientSpec& client : s.clients) {
        if (client.service > static_cast<int>(j)) --client.service;
    }
    std::erase_if(s.faults, [&](const FaultSpec& fault) {
        return targets_service(fault) && fault.a == static_cast<int>(j);
    });
    for (FaultSpec& fault : s.faults) {
        if (targets_service(fault) && fault.a > static_cast<int>(j)) {
            --fault.a;
        }
    }
    return s;
}

}  // namespace

bool CampaignRunner::fails(const Scenario& scenario) const {
    return !run_scenario(scenario, options_.run).ok();
}

Scenario CampaignRunner::shrink(const Scenario& failing) const {
    Scenario current = failing;
    bool progress = true;
    // Keep `candidate` if it still fails; the caller then retries the same
    // index, which now names the next element.
    const auto adopt = [&](Scenario candidate) {
        if (!fails(candidate)) return false;
        current = std::move(candidate);
        progress = true;
        return true;
    };
    while (progress) {
        progress = false;

        for (std::size_t f = 0; f < current.faults.size();) {
            if (!adopt(without_fault(current, f))) ++f;
        }

        for (std::size_t i = 0; i < current.clients.size();) {
            if (current.clients.size() == 1) break;  // keep a workload
            if (!adopt(without_client(current, i))) ++i;
        }

        for (std::size_t p = 0; p < current.peers.size();) {
            if (!adopt(without_peer(current, p))) ++p;
        }

        for (std::size_t j = 0; j < current.services.size(); ++j) {
            for (std::size_t k = 0; k < current.services[j].server_sites.size();) {
                if (current.services[j].server_sites.size() == 1) break;
                if (!adopt(without_replica(current, j, k))) ++k;
            }
        }

        for (std::size_t j = 0; j < current.services.size();) {
            const bool referenced = std::any_of(
                current.clients.begin(), current.clients.end(),
                [&](const ClientSpec& c) { return c.service == static_cast<int>(j); });
            if (referenced || current.services.size() == 1 ||
                !adopt(without_service(current, j))) {
                ++j;
            }
        }

        for (ClientSpec& client : current.clients) {
            while (client.calls > 1) {
                Scenario candidate = current;
                // Edit through the candidate copy, not `client` itself.
                const std::size_t index =
                    static_cast<std::size_t>(&client - current.clients.data());
                candidate.clients[index].calls = std::max(1, client.calls / 2);
                if (!fails(candidate)) break;
                client.calls = candidate.clients[index].calls;
                progress = true;
            }
        }
    }
    return current;
}

CampaignResult CampaignRunner::run() const {
    CampaignResult result;
    const ScenarioGenerator generator(options_.limits);
    for (int r = 0; r < options_.runs; ++r) {
        const std::uint64_t seed = options_.base_seed + static_cast<std::uint64_t>(r);
        const Scenario scenario = generator.generate(seed);
        RunResult run = run_scenario(scenario, options_.run);
        ++result.runs;
        if (options_.on_run) options_.on_run(run);
        if (run.ok()) continue;
        ++result.failures;
        result.first_failure = std::move(run);
        result.failing_scenario = scenario;
        if (options_.shrink) result.shrunk = shrink(scenario);
        break;
    }
    return result;
}

std::string CampaignResult::report() const {
    if (ok()) {
        return "campaign ok: " + std::to_string(runs) + " runs, 0 failures\n";
    }
    std::string out = "campaign FAILED: seed " + std::to_string(first_failure->seed) +
                      " (run " + std::to_string(runs) + ")\n";
    out += "replay: NEWTOP_FUZZ_SEED=" + std::to_string(first_failure->seed) +
           " newtop_fuzz\n";
    out += first_failure->report();
    out += "scenario: " + to_json(*failing_scenario) + "\n";
    if (shrunk.has_value()) {
        out += "shrunk (" + std::to_string(shrunk->clients.size()) + " clients, " +
               std::to_string(shrunk->faults.size()) + " faults): " + to_json(*shrunk) + "\n";
    }
    return out;
}

}  // namespace newtop::fuzz
