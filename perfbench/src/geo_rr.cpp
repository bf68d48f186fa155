// geo_rr: the paper's setting (iii), closed loop over the WAN.
//
// Three replicas in symmetric total order, one each at Newcastle, London
// and Pisa.  Twelve clients, four per site, bind open and call with zero
// think time; their invocation modes split evenly over wait-first,
// wait-majority and wait-all.  One op is one completed call; its latency
// runs from issue to the completion callback.
#include "bench.hpp"
#include "codec_timing.hpp"
#include "layers.hpp"
#include "net/calibration.hpp"
#include "rr_world.hpp"
#include "util/rng.hpp"
#include "window.hpp"

namespace perfbench {
namespace {

using namespace newtop;
using namespace newtop::sim_literals;

constexpr int kReplicas = 3;
constexpr int kClients = 12;
constexpr SimDuration kSettle = 2_s;
constexpr SimDuration kWarmup = 1_s;
constexpr SimDuration kWindow = 12_s;
constexpr SimDuration kCallTimeout = 5_s;
constexpr SimDuration kDrainLimit = 20_s;

/// The paper's benchmark servant: a pseudo-random number per call.
class DrawServant : public GroupServant {
public:
    DrawServant(std::uint64_t seed, Tracer* tracer) : rng_(seed), tracer_(tracer) {}

    Bytes handle(std::uint32_t, const Bytes& args) override {
        SpanGuard span(tracer_, "servant.handle", call_id_of(args));
        return encode_to_bytes(rng_.next_u64());
    }

private:
    Rng rng_;
    Tracer* tracer_;
};

/// Servers, bindings, settle and warm-up; on return the window opens.
struct GeoWorld {
    GeoWorld(std::uint64_t seed, Tracer* tracer)
        : sites(calibration::make_paper_topology()), world(seed, std::move(sites.topology), tracer) {
        const SiteId spread[kReplicas] = {sites.newcastle, sites.london, sites.pisa};
        GroupConfig config;
        config.order = OrderMode::kTotalSymmetric;
        for (int i = 0; i < kReplicas; ++i) {
            orbs.push_back(std::make_unique<Orb>(world.network(), world.network().add_node(spread[i])));
            nsos.push_back(std::make_unique<NewTopService>(*orbs.back(), world.directory()));
            nsos.back()->serve(
                "draw", config,
                std::make_shared<DrawServant>(seed + static_cast<std::uint64_t>(i), tracer));
            advance(world.scheduler(), world.scheduler().now() + 300_ms, tracer);
        }
        BindOptions bind;
        bind.mode = BindMode::kOpen;
        bind.call_timeout = kCallTimeout;
        for (int i = 0; i < kClients; ++i) {
            // Four clients per site, and each mode on every site.
            world.add_client(spread[i % kReplicas], "draw",
                             static_cast<InvocationMode>(1 + (i + i / kReplicas) % 3), bind);
        }
        world.start(kSettle, kWarmup, kWindow);
    }

    calibration::PaperSites sites;
    RrWorld world;
    std::vector<std::unique_ptr<Orb>> orbs;
    std::vector<std::unique_ptr<NewTopService>> nsos;
};

RepResult run_rep(std::uint64_t seed, Tracer* tracer) {
    RepResult r;
    const std::int64_t setup_start = host_ns();
    GeoWorld geo(seed, tracer);
    RrWorld& world = geo.world;
    r.setup_s = static_cast<double>(host_ns() - setup_start) / 1e9;

    LayerAccumulator layers;
    measure_window(world, tracer, r, layers);
    world.drain(kDrainLimit);
    world.check("geo_rr", kReplicas, r);
    world.window_results(r);
    layers.finish(WindowWork{static_cast<double>(r.ops), world.calls_in_window(), 0.0}, r.layer);
    r.digest = world.digest();
    if (tracer != nullptr) {
        obs::ProfileReport report;
        const auto window = check_trace("geo_rr", world.network(), *tracer, world.window_start(),
                                        world.window_end(), r, report);
        std::map<std::string, std::int64_t> phases;
        add_profile_phases(report, phases);
        set_phase_shares(phases, r.layer);
        TracedCalls calls;
        add_traced_calls(window, calls);
        set_wait_quantiles(calls, r.layer);
    }
    return r;
}

std::string setup_digest(std::uint64_t seed) {
    GeoWorld geo(seed, nullptr);
    return registry_digest(geo.world.network().metrics());
}

void host_layers(const RepResult&, Tracer* tracer, std::map<std::string, double>& layer) {
    // A request as it rides the client/server group: an 8-byte-argument
    // RequestEnv inside one unbatched DATA message.
    const RequestEnv request = request_shape(8, InvocationMode::kWaitMajority);
    time_codecs(data_msg_shape(encode_envelope(request).size(), 1), request, tracer, layer);
}

}  // namespace

const Workload& geo_rr_workload() {
    static const Workload w{"geo_rr", &run_rep, &setup_digest, &host_layers};
    return w;
}

}  // namespace perfbench
