// Shared benchmark harness reproducing the paper's evaluation setups (§5).
//
// Network settings mirror the three client/server group configurations:
//   (i)   low latency: clients and servers on the same LAN,
//   (ii)  low + high latency: servers on the Newcastle LAN, clients split
//         between London and Pisa,
//   (iii) high latency: servers and clients spread over Newcastle, London
//         and Pisa.
//
// Client behaviour follows §5.1: closed-loop clients ("as soon as a reply
// is received, another request is issued"), each timed over a fixed number
// of requests after a short warm-up; we report the mean response time per
// request and the aggregate server throughput.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_hook.hpp"
#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "obs/export.hpp"
#include "obs/names.hpp"
#include "obs/profiler.hpp"

namespace newtop::bench {

using namespace sim_literals;

enum class Setting : std::uint8_t { kLan, kDistantClients, kGeo };

inline const char* setting_name(Setting s) {
    switch (s) {
        case Setting::kLan: return "lan";
        case Setting::kDistantClients: return "distant-clients";
        case Setting::kGeo: return "geo-distributed";
    }
    return "?";
}

/// Write a bench's JSON artifact to $NEWTOP_BENCH_OUT, or to `default_path`
/// when that is unset, and print the path.
inline void write_bench_artifact(std::string_view artifact, const char* default_path) {
    // newtop-lint: allow(getenv): artifact destination only; cannot influence simulated behaviour
    const char* out_path = std::getenv("NEWTOP_BENCH_OUT");
    const std::filesystem::path path =
        (out_path != nullptr && *out_path != '\0') ? out_path : default_path;
    std::ofstream out(path, std::ios::trunc);
    out << artifact;
    out.close();
    std::cout << "# artifact " << path.string() << "\n";
}

/// Write `dump` to $NEWTOP_TRACE_DUMP_OUT/<name>.trace.json (the input of
/// newtop_prof) when that directory is set, and print the path.
inline void write_trace_dump(const obs::TraceDump& dump, const std::string& name) {
    // newtop-lint: allow(getenv): artifact destination only; cannot influence simulated behaviour
    const char* dump_dir = std::getenv("NEWTOP_TRACE_DUMP_OUT");
    if (dump_dir == nullptr || *dump_dir == '\0') return;
    const std::filesystem::path dir(dump_dir);
    std::filesystem::create_directories(dir);
    const std::filesystem::path path = dir / (name + ".trace.json");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << dump.to_json();
    out.close();
    std::cout << "# trace-dump " << path.string() << "\n";
}

/// The paper's benchmark servant: returns a pseudo-random number.
class RandomNumberServant : public GroupServant {
public:
    explicit RandomNumberServant(std::uint64_t seed) : rng_(seed) {}

    Bytes handle(std::uint32_t, const Bytes&) override {
        return encode_to_bytes(rng_.next_u64());
    }

private:
    Rng rng_;
};

struct RequestReplyResult {
    double mean_latency_ms{0.0};
    double throughput_rps{0.0};
    std::uint64_t wire_messages{0};
    /// Calls that completed exceptionally (GroupReply::complete false),
    /// warm-up included; neither the latency nor the throughput counts them.
    std::uint64_t failed_calls{0};
    /// Full deterministic dump of the world's metrics registry (counters +
    /// latency histograms) at the end of the run.
    std::string metrics_json;
    /// Per-phase critical-path attribution (options.profile only): every
    /// invocation decomposed into marshal / credit_wait / wire / order_wait
    /// / cpu_wait / execution / reply_collection, reconciled against the
    /// independently measured reply-wait histograms.
    obs::ProfileReport profile;
};

struct RequestReplyOptions {
    Setting setting{Setting::kLan};
    int servers{3};
    int clients{1};
    BindOptions bind{};
    InvocationMode mode{InvocationMode::kWaitFirst};
    OrderMode server_order{OrderMode::kTotalAsymmetric};
    int requests_per_client{100};
    int warmup_per_client{5};
    std::uint64_t seed{1};
    /// Trace the whole run (bounded ring), sample the queue/credit gauges,
    /// and attribute every invocation's latency to protocol phases; the
    /// report lands in RequestReplyResult::profile.  NEWTOP_TRACE_DUMP_OUT
    /// additionally writes the raw TraceDump for offline `newtop_prof`.
    bool profile{false};
};

/// One complete request/reply experiment: build the world, run the closed
/// loops, report latency and throughput.
class RequestReplyBench {
public:
    static RequestReplyResult run(const RequestReplyOptions& options) {
        RequestReplyBench bench(options);
        return bench.execute();
    }

private:
    explicit RequestReplyBench(const RequestReplyOptions& options)
        : options_(options),
          sites_(calibration::make_paper_topology()),
          world_(std::move(sites_.topology), options.seed) {}

    struct Client {
        NewTopService* nso{nullptr};
        GroupProxy proxy;
        int finished{0};  // calls answered or failed
        std::uint64_t failed{0};
        SimTime issued_at{0};
        SimTime first_measured_issue{-1};
        SimTime last_completion{0};
        std::vector<SimDuration> latencies;
    };

    [[nodiscard]] SiteId server_site(int index) const {
        if (options_.setting == Setting::kGeo) {
            const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
            return spread[index % 3];
        }
        return sites_.newcastle;
    }

    [[nodiscard]] SiteId client_site(int index) const {
        switch (options_.setting) {
            case Setting::kLan: return sites_.newcastle;
            case Setting::kDistantClients:
                return index % 2 == 0 ? sites_.london : sites_.pisa;
            case Setting::kGeo: {
                const SiteId spread[3] = {sites_.newcastle, sites_.london, sites_.pisa};
                return spread[index % 3];
            }
        }
        return sites_.newcastle;
    }

    void issue_next(Client& client) {
        client.issued_at = world_.scheduler.now();
        if (client.finished == options_.warmup_per_client &&
            client.first_measured_issue < 0) {
            client.first_measured_issue = world_.scheduler.now();
        }
        client.proxy.invoke(1, Bytes{}, options_.mode, [this, &client](const GroupReply& r) {
            on_completion(client, r.complete);
        });
    }

    void on_completion(Client& client, bool complete) {
        if (!complete) {
            ++client.failed;
        } else if (client.finished >= options_.warmup_per_client) {
            client.latencies.push_back(world_.scheduler.now() - client.issued_at);
            client.last_completion = world_.scheduler.now();
        }
        ++client.finished;
        if (client.finished < options_.warmup_per_client + options_.requests_per_client) {
            issue_next(client);
        }
    }

    /// Deterministic experiment label: doubles as the trace file name, so a
    /// same-seed rerun overwrites its predecessor with identical bytes.
    [[nodiscard]] std::string label() const {
        return std::string("rr_") + setting_name(options_.setting) +
               (options_.bind.mode == BindMode::kClosed ? "_closed" : "_open") + "_s" +
               std::to_string(options_.servers) + "_c" + std::to_string(options_.clients) +
               "_m" + std::to_string(static_cast<int>(options_.mode)) + "_o" +
               std::to_string(static_cast<int>(options_.server_order)) + "_seed" +
               std::to_string(options_.seed);
    }

    void append_expectation(obs::TraceDump& dump, std::string_view metric) {
        if (const obs::LatencyHistogram* h = world_.net.metrics().histogram(metric)) {
            dump.expectations.push_back(
                obs::TraceExpectation{std::string(metric), h->count(), h->sum()});
        }
    }

    RequestReplyResult execute() {
        // NEWTOP_TRACE_OUT=<dir> installs a bounded ring sink for the whole
        // experiment and writes a Perfetto-loadable JSON per run.
        // newtop-lint: allow(getenv): export destination only; cannot influence simulated behaviour
        const char* trace_dir = std::getenv("NEWTOP_TRACE_OUT");
        if (options_.profile || (trace_dir != nullptr && *trace_dir != '\0')) {
            trace_sink_ = std::make_unique<obs::RingTraceSink>(std::size_t{1} << 20);
            trace_sink_->attach_metrics(&world_.net.metrics());
            world_.net.metrics().set_trace_sink(trace_sink_.get());
        }
        if (options_.profile) {
            // Queue/credit time series ride along with the trace: holdback
            // depth, credits in flight, blocked sends, CPU backlog and
            // directory size sampled on fixed sim-time ticks.
            world_.net.enable_gauge_sampling(100_ms, 700_s);
        }

        // Servers.
        GroupConfig server_config;
        server_config.order = options_.server_order;
        for (int i = 0; i < options_.servers; ++i) {
            world_.add_nso(server_site(i))
                .serve("svc", server_config, std::make_shared<RandomNumberServant>(options_.seed));
            world_.run_for(300_ms);
        }

        // Clients.
        for (int i = 0; i < options_.clients; ++i) {
            auto client = std::make_unique<Client>();
            client->nso = &world_.add_nso(client_site(i));
            client->proxy = client->nso->bind("svc", options_.bind);
            clients_.push_back(std::move(client));
        }
        world_.run_for(2_s);  // bindings settle

        const std::uint64_t wire_before = world_.net.stats().messages_sent;
        for (auto& client : clients_) issue_next(*client);

        // Run until every client has finished its measured batch (bounded
        // for safety: a wedged configuration shows up as zero throughput).
        const int total = options_.warmup_per_client + options_.requests_per_client;
        const SimDuration step = 1_s;
        for (int guard = 0; guard < 600; ++guard) {
            world_.run_for(step);
            bool all_done = true;
            for (const auto& client : clients_) all_done &= client->finished >= total;
            if (all_done) break;
        }

        RequestReplyResult result;
        result.wire_messages = world_.net.stats().messages_sent - wire_before;
        std::vector<double> per_client_means;
        SimTime first_issue = -1;
        SimTime last_completion = 0;
        std::size_t measured = 0;
        for (const auto& client : clients_) {
            result.failed_calls += client->failed;
            if (client->latencies.empty()) continue;
            const double sum = std::accumulate(client->latencies.begin(),
                                               client->latencies.end(), 0.0);
            per_client_means.push_back(sum / static_cast<double>(client->latencies.size()));
            measured += client->latencies.size();
            if (first_issue < 0 || client->first_measured_issue < first_issue) {
                first_issue = client->first_measured_issue;
            }
            last_completion = std::max(last_completion, client->last_completion);
        }
        if (!per_client_means.empty()) {
            result.mean_latency_ms =
                to_ms(static_cast<SimDuration>(std::accumulate(per_client_means.begin(),
                                                               per_client_means.end(), 0.0) /
                                               static_cast<double>(per_client_means.size())));
        }
        if (last_completion > first_issue && first_issue >= 0) {
            result.throughput_rps = static_cast<double>(measured) /
                                    to_seconds(last_completion - first_issue);
        }
        result.metrics_json = world_.net.metrics().to_json();

        if (options_.profile && trace_sink_ != nullptr) {
            // Package the stream as a self-describing dump: the embedded
            // histogram totals are what the profiler reconciles its phase
            // sums against (>1% mismatch = tracing bug).
            obs::TraceDump dump = trace_sink_->dump();
            append_expectation(dump, obs::metric::kInvReplyWaitOneway);
            append_expectation(dump, obs::metric::kInvReplyWaitFirst);
            append_expectation(dump, obs::metric::kInvReplyWaitMajority);
            append_expectation(dump, obs::metric::kInvReplyWaitAll);
            append_expectation(dump, obs::metric::kInvReplyWaitOther);
            append_expectation(dump, obs::metric::kGcsDeliveryLatencyUs);
            result.profile = obs::LatencyProfiler{}.analyze(dump);
            write_trace_dump(dump, label());
        }
        if (trace_dir != nullptr && *trace_dir != '\0' && trace_sink_ != nullptr) {
            obs::ExportOptions export_options;
            for (const auto& nso : world_.nsos) {
                export_options.actor_to_node[nso->id().value()] = nso->orb().node_id().value();
            }
            const std::filesystem::path dir(trace_dir);
            std::filesystem::create_directories(dir);
            const std::filesystem::path path = dir / (label() + ".json");
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out << obs::export_chrome_trace(trace_sink_->snapshot(), export_options);
            out.close();
            std::cout << "# trace " << path.string() << "\n";
        }
        return result;
    }

    RequestReplyOptions options_;
    calibration::PaperSites sites_;
    World world_;
    std::unique_ptr<obs::RingTraceSink> trace_sink_;  // profile or NEWTOP_TRACE_OUT only
    std::vector<std::unique_ptr<Client>> clients_;
};

/// Emit a world's metrics dump on stdout.  One line per experiment, grep-
/// friendly prefix; the JSON itself is deterministic for a given seed.
inline void emit_metrics(const std::string& metrics_json) {
    if (!metrics_json.empty()) std::cout << "# metrics " << metrics_json << "\n";
}

/// Attach the standard result counters to a google-benchmark state and
/// print the metrics blob for the run.
inline void report(::benchmark::State& state, const RequestReplyResult& result) {
    state.counters["latency_ms"] = result.mean_latency_ms;
    state.counters["req_per_s"] = result.throughput_rps;
    state.counters["wire_msgs"] = static_cast<double>(result.wire_messages);
    state.counters["failed_calls"] = static_cast<double>(result.failed_calls);
    emit_metrics(result.metrics_json);
}

}  // namespace newtop::bench
