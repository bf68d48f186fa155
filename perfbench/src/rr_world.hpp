// A closed-loop request/reply world: the workload adds the servers, this
// class owns the clients and the bookkeeping of every call.
//
// Each client calls again as soon as its previous call reaches its
// terminal callback (zero think time), until the measured window closes.
// The call id rides in the 8-byte arguments, so servant spans join the
// call's invoke and complete spans.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "net/network.hpp"
#include "newtop/newtop_service.hpp"

namespace perfbench {

/// Call id carried in a request's arguments.
std::uint64_t call_id_of(const newtop::Bytes& args);

class RrWorld {
public:
    RrWorld(std::uint64_t seed, newtop::Topology topology, Tracer* tracer);
    ~RrWorld();
    RrWorld(const RrWorld&) = delete;
    RrWorld& operator=(const RrWorld&) = delete;

    void add_client(newtop::SiteId site, const std::string& service, newtop::InvocationMode mode,
                    const newtop::BindOptions& bind);

    /// Let the bindings settle, start every client and warm up; on return
    /// the measured window of length `window` opens.
    void start(newtop::SimDuration settle, newtop::SimDuration warmup, newtop::SimDuration window);

    std::uint64_t run_window();

    /// Issuing stops at the window's end; wait up to `limit` for the calls
    /// in flight.
    void drain(newtop::SimDuration limit);

    /// Every call reached exactly one terminal callback; when
    /// `wait_all_replies` > 0, every completed wait-all call got that many
    /// replies.
    void check(const std::string& workload, std::size_t wait_all_replies, RepResult& r) const;

    /// Ops (calls completed in the window), latency samples of the calls
    /// issued in the window, failures, sim_rate.
    void window_results(RepResult& r) const;
    [[nodiscard]] double calls_in_window() const;

    /// Registry digest plus every call's outcome.
    [[nodiscard]] std::string digest() const;

    newtop::Scheduler& scheduler() { return scheduler_; }
    newtop::Network& network() { return network_; }
    newtop::Directory& directory() { return directory_; }
    [[nodiscard]] newtop::SimTime window_start() const { return window_start_; }
    [[nodiscard]] newtop::SimTime window_end() const { return window_end_; }

private:
    struct Client {
        std::unique_ptr<newtop::Orb> orb;
        std::unique_ptr<newtop::NewTopService> nso;
        newtop::GroupProxy proxy;
        newtop::InvocationMode mode{newtop::InvocationMode::kWaitFirst};
    };
    struct Call {
        newtop::SimTime issued_at{0};
        newtop::SimTime completed_at{-1};
        std::uint64_t callbacks{0};
        std::uint64_t replies{0};
        newtop::InvocationMode mode{newtop::InvocationMode::kWaitFirst};
        bool complete{false};
    };

    void issue(std::size_t client);
    void on_reply(std::size_t client, std::uint64_t id, const newtop::GroupReply& reply);

    Tracer* tracer_;
    newtop::Scheduler scheduler_;
    newtop::Network network_;
    newtop::Directory directory_;
    std::vector<Client> clients_;
    std::vector<Call> calls_;  // by call id
    std::uint64_t outstanding_{0};
    std::uint64_t extra_callbacks_{0};
    newtop::SimTime window_start_{0};
    newtop::SimTime window_end_{0};
};

}  // namespace perfbench
