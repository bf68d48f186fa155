#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>

#include "invocation/types.hpp"
#include "obs/names.hpp"

namespace perfbench {

using namespace newtop;
namespace metric = newtop::obs::metric;

namespace {

constexpr std::string_view kCounters[] = {
    metric::kGcsNullsSent,     metric::kGcsOrderSent,        metric::kGcsDataSent,
    metric::kGcsNacksSent,     metric::kGcsRetransmits,      metric::kGcsFlushesSent,
    metric::kGcsViewsInstalled, metric::kGcsSuspicionFalse,  metric::kOrbInvocations,
    metric::kOrbOneways,       metric::kInvRebinds,          metric::kInvCallsTimedOut,
    metric::kInvShed,          metric::kReplicationStateRefounds,
};

constexpr std::string_view kHistograms[] = {
    metric::kCpuQueueWaitUs,      metric::kGcsSendBatchPayloads, metric::kGcsOrderBatchRefs,
    metric::kGcsDetectionLatencyUs, metric::kGcsReconfigStallUs, metric::kRecoveryMttr,
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

WorldSnapshot snapshot(Network& network) {
    WorldSnapshot s;
    s.at = network.scheduler().now();
    s.net = network.stats();
    for (const std::string_view name : kCounters) s.counters[name] = network.metrics().counter(name);
    for (const std::string_view name : kHistograms) {
        const obs::LatencyHistogram* h = network.metrics().histogram(name);
        s.histograms[name] = h != nullptr ? *h : obs::LatencyHistogram{};
    }
    for (std::size_t i = 0; i < network.node_count(); ++i) {
        s.cpu_consumed.push_back(
            network.node(NodeId(static_cast<NodeId::rep_type>(i))).cpu().consumed());
    }
    return s;
}

void LayerAccumulator::add_window(const WorldSnapshot& before, Network& network) {
    const WorldSnapshot after = snapshot(network);
    ++windows_;
    net_.messages_sent += after.net.messages_sent - before.net.messages_sent;
    net_.messages_delivered += after.net.messages_delivered - before.net.messages_delivered;
    net_.messages_lost += after.net.messages_lost - before.net.messages_lost;
    net_.bytes_sent += after.net.bytes_sent - before.net.bytes_sent;
    net_.wan_messages += after.net.wan_messages - before.net.wan_messages;
    for (const std::string_view name : kCounters) {
        counters_[name] += static_cast<double>(after.counters.at(name) - before.counters.at(name));
    }
    for (const std::string_view name : kHistograms) {
        const obs::LatencyHistogram& a = after.histograms.at(name);
        const obs::LatencyHistogram& b = before.histograms.at(name);
        Buckets& sum = buckets_[name];
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += a.buckets()[i] - b.buckets()[i];
        hist_sums_[name] += static_cast<double>(a.sum() - b.sum());
    }
    const double window_us = static_cast<double>(after.at - before.at);
    double busiest = 0.0;
    for (std::size_t i = 0; i < after.cpu_consumed.size(); ++i) {
        const SimDuration was = i < before.cpu_consumed.size() ? before.cpu_consumed[i] : 0;
        // consumed() restarts from zero when a crashed host is revived.
        const SimDuration busy = after.cpu_consumed[i] >= was ? after.cpu_consumed[i] - was
                                                              : after.cpu_consumed[i];
        busiest = std::max(busiest, ratio(static_cast<double>(busy), window_us));
    }
    busy_frac_max_sum_ += busiest;
}

double LayerAccumulator::counter(std::string_view name) const {
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

double LayerAccumulator::hist_sum(std::string_view name) const {
    const auto it = hist_sums_.find(name);
    return it == hist_sums_.end() ? 0.0 : it->second;
}

double LayerAccumulator::hist_count(std::string_view name) const {
    const auto it = buckets_.find(name);
    if (it == buckets_.end()) return 0.0;
    std::uint64_t n = 0;
    for (const std::uint64_t b : it->second) n += b;
    return static_cast<double>(n);
}

double LayerAccumulator::quantile(std::string_view name, double q) const {
    const auto it = buckets_.find(name);
    if (it == buckets_.end()) return 0.0;
    const auto count = static_cast<std::uint64_t>(hist_count(name));
    if (count == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count)));
    rank = std::clamp<std::uint64_t>(rank, 1, count);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < it->second.size(); ++i) {
        seen += it->second[i];
        if (seen >= rank) return static_cast<double>(obs::LatencyHistogram::bucket_floor(i));
    }
    return 0.0;
}

void LayerAccumulator::finish(const WindowWork& work, std::map<std::string, double>& layer) const {
    const double ops = work.ops;
    const double calls = work.calls;
    layer["cpu.busy_frac_max"] = ratio(busy_frac_max_sum_, windows_);
    layer["cpu.queue_wait_p99_us"] = quantile(metric::kCpuQueueWaitUs, 0.99);

    layer["net.msgs_per_op"] = ratio(static_cast<double>(net_.messages_sent), ops);
    layer["net.bytes_per_op"] = ratio(static_cast<double>(net_.bytes_sent), ops);
    layer["net.wan_msgs_per_op"] = ratio(static_cast<double>(net_.wan_messages), ops);
    layer["net.lost_per_op"] = ratio(static_cast<double>(net_.messages_lost), ops);

    // Un-coalesced sends carry one payload and never reach the batch
    // histogram, so they count once each.
    const double data_sent = counter(metric::kGcsDataSent);
    const double batched_msgs = hist_count(metric::kGcsSendBatchPayloads);
    layer["gcs.payloads_per_data_msg"] =
        ratio(hist_sum(metric::kGcsSendBatchPayloads) + std::max(0.0, data_sent - batched_msgs),
              data_sent);
    layer["gcs.refs_per_order_msg"] =
        ratio(hist_sum(metric::kGcsOrderBatchRefs), counter(metric::kGcsOrderSent));
    layer["gcs.nulls_per_op"] = ratio(counter(metric::kGcsNullsSent), ops);
    layer["gcs.retransmits_per_op"] = ratio(counter(metric::kGcsRetransmits), ops);
    layer["gcs.nacks_per_op"] = ratio(counter(metric::kGcsNacksSent), ops);

    const double views = counter(metric::kGcsViewsInstalled);
    layer["gcs.views_per_scenario"] = work.scenarios > 0 ? views / work.scenarios : views;
    layer["gcs.flushes_per_view"] = ratio(counter(metric::kGcsFlushesSent), views);
    layer["gcs.suspicion_false"] = counter(metric::kGcsSuspicionFalse);
    layer["gcs.detection_latency_p50_us"] = quantile(metric::kGcsDetectionLatencyUs, 0.50);
    layer["gcs.reconfig_stall_p99_us"] = quantile(metric::kGcsReconfigStallUs, 0.99);

    layer["orb.invocations_per_op"] = ratio(counter(metric::kOrbInvocations), ops);
    layer["orb.oneways_per_op"] = ratio(counter(metric::kOrbOneways), ops);

    layer["invocation.rebinds_per_call"] = ratio(counter(metric::kInvRebinds), calls);
    layer["invocation.timeouts_per_call"] = ratio(counter(metric::kInvCallsTimedOut), calls);
    layer["invocation.shed_per_call"] = ratio(counter(metric::kInvShed), calls);

    layer["recovery.mttr_p50_us"] = quantile(metric::kRecoveryMttr, 0.50);
    layer["replication.state_refounds"] = counter(metric::kReplicationStateRefounds);
}

void set_phase_shares(const std::map<std::string, std::int64_t>& phase_sum_us,
                      std::map<std::string, double>& layer) {
    double total = 0.0;
    for (const std::string_view phase : obs::phase::kAll) {
        const auto it = phase_sum_us.find(std::string(phase));
        if (it != phase_sum_us.end()) total += static_cast<double>(it->second);
    }
    for (const std::string_view phase : obs::phase::kAll) {
        const auto it = phase_sum_us.find(std::string(phase));
        const double sum = it == phase_sum_us.end() ? 0.0 : static_cast<double>(it->second);
        layer["phase." + std::string(phase) + "_share"] = ratio(sum, total);
    }
}

void add_profile_phases(const obs::ProfileReport& report,
                        std::map<std::string, std::int64_t>& phase_sum_us) {
    for (const auto& [name, stats] : report.phases) phase_sum_us[name] += stats.sum_us;
}

std::uint64_t multicast_phases(const std::vector<obs::TraceEvent>& events,
                               std::map<std::string, std::int64_t>& phase_sum_us) {
    using obs::TraceKind;
    // Boundary times keyed like the profiler's predecessor rules: a
    // multicast by span, a ship by (span, carrying-message ref), an arrival
    // by (span, member, ref).
    std::map<std::uint64_t, SimTime> sent;
    std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> shipped;
    std::map<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>, SimTime> arrived;
    std::uint64_t chains = 0;
    for (const obs::TraceEvent& e : events) {
        if (e.trace == 0) continue;
        switch (e.kind) {
            case TraceKind::kMulticastSent: sent[e.span] = e.at; break;
            case TraceKind::kPayloadShipped: shipped[{e.span, e.detail}] = e.at; break;
            case TraceKind::kDataArrived: arrived[{e.span, e.actor, e.detail}] = e.at; break;
            case TraceKind::kPayloadDelivered: {
                const auto a = arrived.find({e.span, e.actor, e.detail});
                if (a == arrived.end()) break;
                const auto s = shipped.find({e.span, e.detail});
                if (s == shipped.end()) break;
                const auto m = sent.find(e.span);
                if (m == sent.end()) break;
                phase_sum_us[std::string(obs::phase::kOrderWait)] += e.at - a->second;
                phase_sum_us[std::string(obs::phase::kWire)] += a->second - s->second;
                phase_sum_us[std::string(obs::phase::kCreditWait)] += s->second - m->second;
                ++chains;
                break;
            }
            default: break;
        }
    }
    return chains;
}

void add_traced_calls(const std::vector<obs::TraceEvent>& events, TracedCalls& calls) {
    using obs::TraceKind;
    std::map<std::pair<std::uint64_t, std::uint64_t>, SimTime> sent;
    std::set<std::pair<std::uint64_t, std::uint64_t>> issued;
    std::set<std::uint64_t> shed;
    SimTime first = -1;
    SimTime last = -1;
    for (const obs::TraceEvent& e : events) {
        const std::pair<std::uint64_t, std::uint64_t> key{e.trace, e.actor};
        switch (e.kind) {
            case TraceKind::kRequestQueued:
                if (issued.insert(key).second && first < 0) first = e.at;
                break;
            case TraceKind::kRequestSent:
                if (issued.insert(key).second && first < 0) first = e.at;
                sent.try_emplace(key, e.at);
                break;
            case TraceKind::kCallCompleted: {
                ++calls.tally.completed;
                last = e.at;
                const auto it = sent.find(key);
                if (it == sent.end()) break;
                const auto wait = static_cast<double>(e.at - it->second);
                calls.latency_ms.push_back(wait / 1000.0);
                calls.wait_us_by_mode[obs::completion_detail_mode(e.detail)].push_back(wait);
                break;
            }
            case TraceKind::kCallFailed:
                ++calls.tally.failed;
                last = e.at;
                break;
            case TraceKind::kCallTimedOut:
                ++calls.tally.timed_out;
                last = e.at;
                break;
            case TraceKind::kRequestShed: shed.insert(e.trace); break;
            default: break;
        }
    }
    calls.tally.issued += issued.size();
    calls.tally.shed += shed.size();
    if (first >= 0 && last > first) calls.active_us += static_cast<double>(last - first);
}

void set_wait_quantiles(const TracedCalls& calls, std::map<std::string, double>& layer) {
    const std::pair<const char*, InvocationMode> modes[] = {
        {"first", InvocationMode::kWaitFirst},
        {"majority", InvocationMode::kWaitMajority},
        {"all", InvocationMode::kWaitAll}};
    for (const auto& [name, mode] : modes) {
        const auto it = calls.wait_us_by_mode.find(static_cast<std::uint64_t>(mode));
        std::vector<double> samples;
        if (it != calls.wait_us_by_mode.end()) samples = it->second;
        const Quantile p50 = exact_quantile(samples, 0.50);
        const Quantile p99 = exact_quantile(samples, 0.99);
        layer[std::string("invocation.wait_") + name + "_p50_us"] = p50.ok ? p50.value : 0.0;
        layer[std::string("invocation.wait_") + name + "_p99_us"] = p99.ok ? p99.value : 0.0;
    }
}

}  // namespace perfbench
