// World — one simulated deployment of fig. 2: a scheduler, the network every
// host shares, the naming directory, and per host an ORB plus (optionally) a
// NewTop service object.
//
//   World world(calibration::make_lan_topology(), /*seed=*/1);
//   world.add_nso().serve("random", config, servant);
//   GroupProxy proxy = world.add_nso().bind("random");
//   world.run_for(1_s);
//
// Tests, benches, the fuzz runner and the examples all build their scenarios
// on it and keep only what differs: topology, seed, handlers and checks.
// Node ids, endpoint ids and RNG draws follow from the order of add_orb() /
// add_nso() calls, so a scenario replays exactly from its seed.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "gcs/directory.hpp"
#include "net/network.hpp"
#include "newtop/newtop_service.hpp"
#include "orb/orb.hpp"
#include "sim/scheduler.hpp"

namespace newtop {

struct World {
    World(Topology topology, std::uint64_t seed)
        : net(scheduler, std::move(topology), seed) {}

    World(const World&) = delete;
    World& operator=(const World&) = delete;

    /// A trace sink usually lives in the scenario that owns this World and
    /// dies first, so it is detached before anything else; the members then
    /// die in reverse order: NSOs, ORBs, directory, network, scheduler.
    ~World() { net.metrics().set_trace_sink(nullptr); }

    /// A fresh host at `site` running an ORB (no NSO): for ORB-level
    /// scenarios and for endpoints a caller builds on it.
    Orb& add_orb(SiteId site = SiteId(0)) {
        const NodeId node = net.add_node(site);
        return *orbs.emplace_back(std::make_unique<Orb>(net, node));
    }

    /// A fresh host at `site` running an ORB and a NewTop service object.
    NewTopService& add_nso(SiteId site = SiteId(0)) {
        Orb& orb = add_orb(site);
        return *nsos.emplace_back(std::make_unique<NewTopService>(orb, directory));
    }

    void run_for(SimDuration d) { scheduler.run_until(scheduler.now() + d); }

    // Declaration order is lifetime order.
    Scheduler scheduler;
    Network net;
    Directory directory;
    std::vector<std::unique_ptr<Orb>> orbs;           // add_orb / add_nso order
    std::vector<std::unique_ptr<NewTopService>> nsos;  // add_nso order
};

}  // namespace newtop
