#include "rr_world.hpp"

#include <algorithm>

#include "stats.hpp"

namespace perfbench {

using namespace newtop;

std::uint64_t call_id_of(const Bytes& args) {
    std::uint64_t id = 0;
    for (std::size_t b = 0; b < 8 && b < args.size(); ++b) id |= std::uint64_t{args[b]} << (8 * b);
    return id;
}

RrWorld::RrWorld(std::uint64_t seed, Topology topology, Tracer* tracer)
    : tracer_(tracer), network_(scheduler_, std::move(topology), seed) {
    if (tracer_ != nullptr) network_.metrics().set_trace_sink(tracer_);
}

RrWorld::~RrWorld() { network_.metrics().set_trace_sink(nullptr); }

void RrWorld::add_client(SiteId site, const std::string& service, InvocationMode mode,
                         const BindOptions& bind) {
    Client c;
    c.orb = std::make_unique<Orb>(network_, network_.add_node(site));
    c.nso = std::make_unique<NewTopService>(*c.orb, directory_);
    c.proxy = c.nso->bind(service, bind);
    c.mode = mode;
    clients_.push_back(std::move(c));
}

void RrWorld::start(SimDuration settle, SimDuration warmup, SimDuration window) {
    advance(scheduler_, scheduler_.now() + settle, tracer_);
    window_start_ = scheduler_.now() + warmup;
    window_end_ = window_start_ + window;
    for (std::size_t i = 0; i < clients_.size(); ++i) issue(i);
    advance(scheduler_, window_start_, tracer_);
}

std::uint64_t RrWorld::run_window() { return advance(scheduler_, window_end_, tracer_); }

void RrWorld::drain(SimDuration limit) {
    const SimTime until = scheduler_.now() + limit;
    while (outstanding_ > 0 && scheduler_.now() < until) {
        advance(scheduler_, std::min<SimTime>(until, scheduler_.now() + 100'000), tracer_);
    }
}

void RrWorld::check(const std::string& workload, std::size_t wait_all_replies, RepResult& r) const {
    if (outstanding_ > 0) {
        r.errors.push_back(workload + ": " + std::to_string(outstanding_) +
                           " calls never reached a terminal callback");
    }
    if (extra_callbacks_ > 0) {
        r.errors.push_back(workload + ": " + std::to_string(extra_callbacks_) +
                           " calls reached more than one terminal callback");
    }
    if (wait_all_replies == 0) return;
    std::uint64_t short_wait_all = 0;
    for (const Call& c : calls_) {
        short_wait_all += c.complete && c.mode == InvocationMode::kWaitAll && c.replies != wait_all_replies;
    }
    if (short_wait_all > 0) {
        r.errors.push_back(workload + ": " + std::to_string(short_wait_all) +
                           " wait-all calls completed without a reply from every live replica");
    }
}

void RrWorld::window_results(RepResult& r) const {
    for (const Call& c : calls_) {
        if (c.complete && c.completed_at >= window_start_ && c.completed_at < window_end_) ++r.ops;
        if (c.issued_at < window_start_ || c.issued_at >= window_end_) continue;
        ++r.attempted;
        if (!c.complete) {
            ++r.failed;
            continue;
        }
        r.latencies_ms.push_back(static_cast<double>(c.completed_at - c.issued_at) / 1000.0);
    }
    r.sim_window_s = to_seconds(window_end_ - window_start_);
    r.sim_rate = static_cast<double>(r.ops) / r.sim_window_s;
}

double RrWorld::calls_in_window() const {
    double n = 0;
    for (const Call& c : calls_) n += c.issued_at >= window_start_ && c.issued_at < window_end_;
    return n;
}

std::string RrWorld::digest() const {
    std::uint64_t h = obs::kFnvOffsetBasis;
    for (const Call& c : calls_) {
        h = obs::fnv1a64(h, static_cast<std::uint64_t>(c.completed_at));
        h = obs::fnv1a64(h, c.replies);
    }
    return hex_digest(strip_obs_members(network_.metrics().to_json()) + "|" + std::to_string(h));
}

void RrWorld::issue(std::size_t client) {
    const std::uint64_t id = calls_.size();
    Client& c = clients_[client];
    calls_.push_back(Call{scheduler_.now(), -1, 0, 0, c.mode, false});
    ++outstanding_;
    Bytes args(8);
    for (std::size_t b = 0; b < 8; ++b) args[b] = static_cast<std::uint8_t>(id >> (8 * b));
    SpanGuard span(tracer_, "invoke", id);
    c.proxy.invoke(1, std::move(args), c.mode,
                   [this, client, id](const GroupReply& reply) { on_reply(client, id, reply); });
}

void RrWorld::on_reply(std::size_t client, std::uint64_t id, const GroupReply& reply) {
    SpanGuard span(tracer_, "complete", id);
    Call& call = calls_[id];
    if (++call.callbacks > 1) {
        ++extra_callbacks_;
        return;
    }
    --outstanding_;
    call.completed_at = scheduler_.now();
    call.complete = reply.complete;
    call.replies = reply.replies.size();
    if (scheduler_.now() < window_end_) issue(client);
}

}  // namespace perfbench
