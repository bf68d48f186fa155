// lan_flood: the data-plane hot path, open loop.
//
// A 3-member asymmetric (sequencer) group on one LAN with batching on
// (order_window 16, order_max_batch 64).  The two non-sequencer members
// each submit 16 x 32 B payloads every 2 ms whatever the group's progress:
// 16k payloads/s offered, which the batched pipeline drains, so the backlog
// stays flat.  One op is one payload delivered at every member; its latency
// runs from the feed tick it was due at to its delivery at the last member,
// so time spent waiting for a send credit counts.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "codec_timing.hpp"
#include "gcs/endpoint.hpp"
#include "layers.hpp"
#include "net/calibration.hpp"
#include "orb/orb.hpp"
#include "util/rng.hpp"
#include "window.hpp"

namespace perfbench {
namespace {

using namespace newtop;
using namespace newtop::sim_literals;

constexpr int kMembers = 3;
constexpr int kSenders = 2;
constexpr int kBurst = 16;
constexpr SimDuration kFeedInterval = 2_ms;
constexpr std::size_t kPayloadBytes = 32;
constexpr SimDuration kSettle = 500_ms;
constexpr SimDuration kWarmup = 500_ms;
constexpr SimDuration kWindow = 5_s;
constexpr SimDuration kDrainStep = 100_ms;
constexpr int kDrainSteps = 50;

class Flood {
public:
    Flood(std::uint64_t seed, Tracer* tracer)
        : tracer_(tracer),
          network_(scheduler_, calibration::make_lan_topology(), seed),
          filler_(seed ^ 0x6c616e5f666c6f6fULL) {
        if (tracer_ != nullptr) network_.metrics().set_trace_sink(tracer_);
    }
    ~Flood() { network_.metrics().set_trace_sink(nullptr); }
    Flood(const Flood&) = delete;
    Flood& operator=(const Flood&) = delete;

    /// Build the group, let it settle, start the feeders and warm up; on
    /// return the measured window opens.
    void setup() {
        for (int i = 0; i < kMembers; ++i) {
            orbs_.push_back(std::make_unique<Orb>(network_, network_.add_node(SiteId(0))));
            members_.push_back(std::make_unique<GroupCommEndpoint>(*orbs_.back(), directory_));
        }
        GroupConfig config;
        config.order = OrderMode::kTotalAsymmetric;
        config.order_window = 16;
        config.order_max_batch = 64;
        group_ = members_[0]->create_group("flood", config);
        for (int i = 1; i < kMembers; ++i) members_[i]->join_group("flood");
        advance(scheduler_, scheduler_.now() + kSettle, tracer_);

        for (int m = 0; m < kMembers; ++m) {
            members_[m]->set_deliver_handler(
                [this, m](const GroupCommEndpoint::Delivery& d) { on_deliver(m, d); });
        }
        window_start_ = scheduler_.now() + kWarmup;
        window_end_ = window_start_ + kWindow;
        // Member 0 created the group and is the sequencer; the others feed.
        for (int s = 0; s < kSenders; ++s) {
            const int member = kMembers - 1 - s;
            schedule_tick(member, scheduler_.now() + SimDuration{s + 1});
        }
        advance(scheduler_, window_start_, tracer_);
    }

    /// Run the measured window; returns the events executed (traced only).
    std::uint64_t run_window() { return advance(scheduler_, window_end_, tracer_); }

    /// Feeding has stopped at the window's end; let the group deliver
    /// everything still in flight.
    void drain() {
        for (int i = 0; i < kDrainSteps && !all_delivered(); ++i) {
            advance(scheduler_, scheduler_.now() + kDrainStep, tracer_);
        }
    }

    void check(RepResult& r) const {
        if (unknown_ > 0) r.errors.push_back("lan_flood: delivered payloads with unknown ids");
        if (duplicates_ > 0) {
            r.errors.push_back("lan_flood: " + std::to_string(duplicates_) +
                               " payload deliveries were duplicates");
        }
        std::uint64_t missing = 0;
        for (const std::uint8_t c : delivered_by_) missing += c == kMembers ? 0 : 1;
        if (missing > 0) {
            r.errors.push_back("lan_flood: " + std::to_string(missing) +
                               " payloads not delivered at every member after the drain");
        }
        for (int m = 1; m < kMembers; ++m) {
            if (order_digest_[m] != order_digest_[0] || delivered_[m] != delivered_[0]) {
                r.errors.push_back("lan_flood: member " + std::to_string(m) +
                                   " delivered in a different order than member 0");
            }
        }
    }

    /// Ops, latency samples and failures of the window.
    void window_results(RepResult& r) const {
        for (std::size_t id = 0; id < due_.size(); ++id) {
            if (done_at_[id] >= window_start_ && done_at_[id] < window_end_) ++r.ops;
            if (due_[id] < window_start_ || due_[id] >= window_end_) continue;
            ++r.attempted;
            if (delivered_by_[id] != kMembers) {
                ++r.failed;
                continue;
            }
            r.latencies_ms.push_back(static_cast<double>(done_at_[id] - due_[id]) / 1000.0);
        }
        r.sim_window_s = to_seconds(kWindow);
        r.sim_rate = static_cast<double>(r.ops) / r.sim_window_s;
    }

    [[nodiscard]] std::string digest() const {
        std::string text = strip_obs_members(network_.metrics().to_json());
        for (int m = 0; m < kMembers; ++m) {
            text += '|';
            text += std::to_string(order_digest_[m]);
        }
        return hex_digest(text);
    }

    Network& network() { return network_; }
    [[nodiscard]] SimTime window_start() const { return window_start_; }
    [[nodiscard]] SimTime window_end() const { return window_end_; }

private:
    void schedule_tick(int member, SimTime at) {
        scheduler_.schedule_at(at, [this, member] {
            feed(member);
            if (scheduler_.now() + kFeedInterval < window_end_) {
                schedule_tick(member, scheduler_.now() + kFeedInterval);
            }
        });
    }

    void feed(int member) {
        for (int k = 0; k < kBurst; ++k) {
            const std::uint64_t id = due_.size();
            due_.push_back(scheduler_.now());
            done_at_.push_back(-1);
            delivered_by_.push_back(0);
            Bytes payload(kPayloadBytes);
            for (std::size_t b = 0; b < 8; ++b) payload[b] = static_cast<std::uint8_t>(id >> (8 * b));
            const std::uint64_t noise = filler_.next_u64();
            for (std::size_t b = 8; b < kPayloadBytes; ++b) {
                payload[b] = static_cast<std::uint8_t>(noise >> (8 * (b % 8)));
            }
            SpanGuard span(tracer_, "multicast", id);
            members_[static_cast<std::size_t>(member)]->multicast(group_, std::move(payload));
        }
    }

    void on_deliver(int member, const GroupCommEndpoint::Delivery& d) {
        std::uint64_t id = 0;
        for (std::size_t b = 0; b < 8 && b < d.payload.size(); ++b) {
            id |= std::uint64_t{d.payload[b]} << (8 * b);
        }
        SpanGuard span(tracer_, "deliver", id);
        if (d.payload.size() != kPayloadBytes || id >= due_.size()) {
            ++unknown_;
            return;
        }
        auto& seen = seen_[static_cast<std::size_t>(member)];
        if (seen.size() < due_.size()) seen.resize(due_.size(), 0);
        if (seen[id]++ > 0) {
            ++duplicates_;
            return;
        }
        ++delivered_[static_cast<std::size_t>(member)];
        order_digest_[static_cast<std::size_t>(member)] =
            obs::fnv1a64(order_digest_[static_cast<std::size_t>(member)], id);
        if (++delivered_by_[id] == kMembers) done_at_[id] = scheduler_.now();
    }

    [[nodiscard]] bool all_delivered() const {
        for (const std::uint8_t c : delivered_by_) {
            if (c != kMembers) return false;
        }
        return true;
    }

    Tracer* tracer_;
    Scheduler scheduler_;
    Network network_;
    Directory directory_;
    Rng filler_;
    std::vector<std::unique_ptr<Orb>> orbs_;
    std::vector<std::unique_ptr<GroupCommEndpoint>> members_;
    GroupId group_;
    SimTime window_start_{0};
    SimTime window_end_{0};

    std::vector<SimTime> due_;               // by payload id
    std::vector<SimTime> done_at_;           // delivered at the last member
    std::vector<std::uint8_t> delivered_by_; // members that delivered it
    std::array<std::vector<std::uint8_t>, kMembers> seen_;
    std::array<std::uint64_t, kMembers> delivered_{};
    std::array<std::uint64_t, kMembers> order_digest_{
        obs::kFnvOffsetBasis, obs::kFnvOffsetBasis, obs::kFnvOffsetBasis};
    std::uint64_t unknown_{0};
    std::uint64_t duplicates_{0};
};

RepResult run_rep(std::uint64_t seed, Tracer* tracer) {
    RepResult r;
    const std::int64_t setup_start = host_ns();
    Flood flood(seed, tracer);
    flood.setup();
    r.setup_s = static_cast<double>(host_ns() - setup_start) / 1e9;

    LayerAccumulator layers;
    measure_window(flood, tracer, r, layers);
    flood.drain();
    flood.check(r);
    flood.window_results(r);
    layers.finish(WindowWork{static_cast<double>(r.ops), 0.0, 0.0}, r.layer);
    r.digest = flood.digest();
    if (tracer != nullptr) {
        obs::ProfileReport report;
        const auto window = check_trace("lan_flood", flood.network(), *tracer,
                                        flood.window_start(), flood.window_end(), r, report);
        // Bare multicasts: no invocation chain for the profiler to walk.
        std::map<std::string, std::int64_t> phases;
        multicast_phases(window, phases);
        set_phase_shares(phases, r.layer);
    }
    return r;
}

std::string setup_digest(std::uint64_t seed) {
    Flood flood(seed, nullptr);
    flood.setup();
    return registry_digest(flood.network().metrics());
}

void host_layers(const RepResult& traced, Tracer* tracer, std::map<std::string, double>& layer) {
    // The DATA message as the window ships it: the measured mean batch.
    const auto payloads = static_cast<std::size_t>(
        std::max(1.0, std::round(traced.layer.count("gcs.payloads_per_data_msg") != 0
                                     ? traced.layer.at("gcs.payloads_per_data_msg")
                                     : 1.0)));
    time_codecs(data_msg_shape(kPayloadBytes, payloads),
                request_shape(8, InvocationMode::kWaitFirst), tracer, layer);
}

}  // namespace

const Workload& lan_flood_workload() {
    static const Workload w{"lan_flood", &run_rep, &setup_digest, &host_layers};
    return w;
}

}  // namespace perfbench
