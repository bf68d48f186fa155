// Peer participation (§2.1(iii)): a teleconference-style application where
// every member multicasts to the full group — the motivating example the
// paper gives for the symmetric ordering protocol.
//
// Three participants spread over Newcastle, London and Pisa share a
// "minutes" document: each one-way send is an edit, and causality-
// preserving total order guarantees every participant sees the same
// transcript even though edits are issued concurrently over high-latency
// Internet paths.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "net/calibration.hpp"
#include "newtop/world.hpp"

using namespace newtop;
using namespace newtop::sim_literals;

namespace {

struct Participant {
    std::string name;
    PeerGroup room;
    std::vector<std::string> transcript;
};

}  // namespace

int main() {
    auto sites = calibration::make_paper_topology();
    World world(std::move(sites.topology), /*seed=*/7);

    // Lively group with the symmetric protocol: everyone is multicasting
    // regularly, so distributing the ordering duty beats funnelling
    // through a sequencer (§5.2).
    GroupConfig config;
    config.order = OrderMode::kTotalSymmetric;
    config.liveness = LivenessMode::kLively;

    const std::vector<std::pair<std::string, SiteId>> seats = {
        {"alice@newcastle", sites.newcastle},
        {"bob@london", sites.london},
        {"carla@pisa", sites.pisa},
    };

    std::vector<std::unique_ptr<Participant>> people;
    for (const auto& [name, site] : seats) {
        auto p = std::make_unique<Participant>();
        p->name = name;
        Participant* raw = p.get();
        p->room = world.add_nso(site).join_peer_group(
            "conference", config,
            [raw](const NewTopService::PeerMessage& m) {
                raw->transcript.emplace_back(m.payload.begin(), m.payload.end());
            },
            [raw](const View& view) {
                std::printf("[%s] view %llu with %zu participants\n", raw->name.c_str(),
                            static_cast<unsigned long long>(view.epoch),
                            view.members.size());
            });
        world.run_for(500_ms);
        people.push_back(std::move(p));
    }

    // Everyone talks at once; total order sorts it out.
    auto say = [&](std::size_t who, const std::string& text) {
        const std::string line = people[who]->name + ": " + text;
        people[who]->room.publish(Bytes(line.begin(), line.end()));
    };
    say(0, "shall we start?");
    say(1, "the latency from London is fine");
    say(2, "Pisa checking in");
    world.run_for(1_s);
    say(2, "agenda item one");
    say(0, "agreed");
    say(1, "agreed");
    world.run_for(2_s);

    std::printf("\n--- transcript as seen from each site ---\n");
    for (const auto& p : people) {
        std::printf("[%s] %zu lines\n", p->name.c_str(), p->transcript.size());
    }
    const bool identical = people[0]->transcript == people[1]->transcript &&
                           people[1]->transcript == people[2]->transcript;
    std::printf("transcripts identical at all sites: %s\n", identical ? "yes" : "NO");
    for (const auto& line : people[0]->transcript) std::printf("  %s\n", line.c_str());
    return identical ? 0 : 1;
}
