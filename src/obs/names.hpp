// Central registry of metric, gauge and phase names.
//
// Every counter/histogram/gauge name and every profiler phase label lives
// here as a named constant.  Emission sites reference the constants instead
// of spelling string literals, so a typo becomes a compile error instead of
// a silently separate metric series — enforced by the newtop_lint
// "metric-name" rule, which flags metric-prefixed string literals anywhere
// in src/ outside this file.
//
// A metric constant is a MetricId: its dense index in kMetricTable plus its
// name.  MetricsRegistry keeps counters and histograms in arrays indexed by
// it, so a per-message add() is an array increment rather than a name
// lookup, and the constant still reads as its name (it converts to
// std::string_view, at compile time too).
#pragma once

#include <cstdint>
#include <iterator>
#include <string_view>

namespace newtop::obs {

/// A metric's dense id and its name.  Ids below kMetricTableSize name the
/// table entries; a registry interns names composed at runtime
/// (MetricsRegistry::intern) under ids past the table, valid in that
/// registry only.
struct MetricId {
    std::uint32_t index{0};
    std::string_view name;

    constexpr operator std::string_view() const { return name; }
};

/// Every metric name the code emits under a compile-time id, in id order.
inline constexpr std::string_view kMetricTable[] = {
    "cpu.tasks",
    "cpu.busy_us",
    "cpu.queue_wait_us",
    "cpu.backlog_us",
    "net.messages_sent",
    "net.bytes_sent",
    "net.wan_messages",
    "net.messages_lost",
    "net.stale_incarnation_drops",
    "net.messages_delivered",
    "net.delivery_latency_us",
    "net.crashes",
    "net.crash_ignored",
    "net.restarts",
    "net.restart_ignored",
    "orb.invocations",
    "orb.call_timeouts",
    "orb.oneways",
    "orb.requests_handled",
    "orb.replies_sent",
    "orb.replies_received",
    "orb.group_retries",
    "gcs.multicasts",
    "gcs.sends_coalesced",
    "gcs.send_batch_payloads",
    "gcs.nulls_sent",
    "gcs.order_sent",
    "gcs.data_sent",
    "gcs.holdback_depth",
    "gcs.order_batch_refs",
    "gcs.delivered",
    "gcs.delivery_latency_us",
    "gcs.nacks_sent",
    "gcs.retransmits",
    "gcs.group_refounds",
    "gcs.flushes_sent",
    "gcs.views_installed",
    "gcs.holdback",
    "gcs.credits_in_flight",
    "gcs.blocked_sends",
    "gcs.reconfigs",
    "gcs.config_epoch",
    "gcs.reconfig_stall_us",
    "gcs.suspicion_true",
    "gcs.suspicion_false",
    "gcs.detection_latency_us",
    "invocation.rebinds",
    "invocation.backoffs",
    "invocation.backoff_rebinds",
    "invocation.requests_queued",
    "invocation.calls_sent",
    "invocation.calls_retried",
    "invocation.calls_timed_out",
    "invocation.calls_completed",
    "invocation.calls_failed",
    "invocation.replies_collected",
    "invocation.rm_replies_collected",
    "invocation.reply_wait_us.oneway",
    "invocation.reply_wait_us.first",
    "invocation.reply_wait_us.majority",
    "invocation.reply_wait_us.all",
    "invocation.reply_wait_us.other",
    "invocation.shed",
    "invocation.bind_shed",
    "directory.evictions",
    "directory.size",
    "replication.state_refounds",
    "recovery.mttr",
    "obs.trace_dropped",
};
inline constexpr auto kMetricTableSize = static_cast<std::uint32_t>(std::size(kMetricTable));

/// The table entry named `name`; a name missing from the table does not
/// compile.
consteval MetricId metric_id(std::string_view name) {
    for (std::uint32_t i = 0; i < kMetricTableSize; ++i) {
        if (kMetricTable[i] == name) return MetricId{i, kMetricTable[i]};
    }
    throw "metric name missing from kMetricTable";
}

}  // namespace newtop::obs

namespace newtop::obs::metric {

// -- cpu ----------------------------------------------------------------------
inline constexpr MetricId kCpuTasks = metric_id("cpu.tasks");
inline constexpr MetricId kCpuBusyUs = metric_id("cpu.busy_us");
inline constexpr MetricId kCpuQueueWaitUs = metric_id("cpu.queue_wait_us");
/// Gauge: microseconds of queued-but-unexecuted work, summed over nodes.
inline constexpr MetricId kCpuBacklogUs = metric_id("cpu.backlog_us");

// -- net ----------------------------------------------------------------------
inline constexpr MetricId kNetMessagesSent = metric_id("net.messages_sent");
inline constexpr MetricId kNetBytesSent = metric_id("net.bytes_sent");
inline constexpr MetricId kNetWanMessages = metric_id("net.wan_messages");
inline constexpr MetricId kNetMessagesLost = metric_id("net.messages_lost");
inline constexpr MetricId kNetStaleIncarnationDrops = metric_id("net.stale_incarnation_drops");
inline constexpr MetricId kNetMessagesDelivered = metric_id("net.messages_delivered");
inline constexpr MetricId kNetDeliveryLatencyUs = metric_id("net.delivery_latency_us");
inline constexpr MetricId kNetCrashes = metric_id("net.crashes");
inline constexpr MetricId kNetCrashIgnored = metric_id("net.crash_ignored");
inline constexpr MetricId kNetRestarts = metric_id("net.restarts");
inline constexpr MetricId kNetRestartIgnored = metric_id("net.restart_ignored");
/// Prefix for the per-(site,site) link counters ("net.link.A->B.messages",
/// ".bytes", ".drops"); the full names are composed at runtime.
inline constexpr std::string_view kNetLinkPrefix = "net.link.";

// -- orb ----------------------------------------------------------------------
inline constexpr MetricId kOrbInvocations = metric_id("orb.invocations");
inline constexpr MetricId kOrbCallTimeouts = metric_id("orb.call_timeouts");
inline constexpr MetricId kOrbOneways = metric_id("orb.oneways");
inline constexpr MetricId kOrbRequestsHandled = metric_id("orb.requests_handled");
inline constexpr MetricId kOrbRepliesSent = metric_id("orb.replies_sent");
inline constexpr MetricId kOrbRepliesReceived = metric_id("orb.replies_received");
inline constexpr MetricId kOrbGroupRetries = metric_id("orb.group_retries");

// -- gcs ----------------------------------------------------------------------
inline constexpr MetricId kGcsMulticasts = metric_id("gcs.multicasts");
inline constexpr MetricId kGcsSendsCoalesced = metric_id("gcs.sends_coalesced");
inline constexpr MetricId kGcsSendBatchPayloads = metric_id("gcs.send_batch_payloads");
inline constexpr MetricId kGcsNullsSent = metric_id("gcs.nulls_sent");
inline constexpr MetricId kGcsOrderSent = metric_id("gcs.order_sent");
inline constexpr MetricId kGcsDataSent = metric_id("gcs.data_sent");
inline constexpr MetricId kGcsHoldbackDepth = metric_id("gcs.holdback_depth");
inline constexpr MetricId kGcsOrderBatchRefs = metric_id("gcs.order_batch_refs");
inline constexpr MetricId kGcsDelivered = metric_id("gcs.delivered");
inline constexpr MetricId kGcsDeliveryLatencyUs = metric_id("gcs.delivery_latency_us");
inline constexpr MetricId kGcsNacksSent = metric_id("gcs.nacks_sent");
inline constexpr MetricId kGcsRetransmits = metric_id("gcs.retransmits");
inline constexpr MetricId kGcsGroupRefounds = metric_id("gcs.group_refounds");
inline constexpr MetricId kGcsFlushesSent = metric_id("gcs.flushes_sent");
inline constexpr MetricId kGcsViewsInstalled = metric_id("gcs.views_installed");
/// Gauge: messages parked in holdback queues, summed over endpoints.
inline constexpr MetricId kGcsHoldback = metric_id("gcs.holdback");
/// Gauge: send credits in flight (unacknowledged own sends counted against
/// the order window), summed over endpoints.
inline constexpr MetricId kGcsCreditsInFlight = metric_id("gcs.credits_in_flight");
/// Gauge: payloads queued waiting for a send credit, summed over endpoints
/// (includes sends blocked by a view change).
inline constexpr MetricId kGcsBlockedSends = metric_id("gcs.blocked_sends");
/// View installs that applied a new configuration (runtime reconfigurations
/// honoured, counted once per member that switched).
inline constexpr MetricId kGcsReconfigs = metric_id("gcs.reconfigs");
/// Gauge: highest config epoch installed, summed over endpoints (a stuck
/// member shows up as the sum lagging members x epoch).
inline constexpr MetricId kGcsConfigEpoch = metric_id("gcs.config_epoch");
/// Histogram: proposal delivery -> reconfigured view install, per member —
/// the flush stall an in-flight reconfiguration imposes on the group.
inline constexpr MetricId kGcsReconfigStallUs = metric_id("gcs.reconfig_stall_us");
/// Suspicions retroactively confirmed: the suspect was removed by a view
/// without ever being heard from again after the suspicion was raised.
inline constexpr MetricId kGcsSuspicionTrue = metric_id("gcs.suspicion_true");
/// Suspicions retroactively refuted: a message from the suspect arrived
/// after the suspicion was raised — the peer was slow, not dead.
inline constexpr MetricId kGcsSuspicionFalse = metric_id("gcs.suspicion_false");
/// Histogram: silence accrued when a suspicion was raised (last heard ->
/// suspected), the detector's detection latency per suspicion.
inline constexpr MetricId kGcsDetectionLatencyUs = metric_id("gcs.detection_latency_us");
/// Prefix for the per-peer φ-accrual suspicion-level gauges
/// ("gcs.phi.<endpoint>", sampled in milli-φ); composed at runtime like the
/// per-link counters above.
inline constexpr std::string_view kGcsPhiPrefix = "gcs.phi.";

// -- invocation ---------------------------------------------------------------
inline constexpr MetricId kInvRebinds = metric_id("invocation.rebinds");
inline constexpr MetricId kInvBackoffs = metric_id("invocation.backoffs");
inline constexpr MetricId kInvBackoffRebinds = metric_id("invocation.backoff_rebinds");
inline constexpr MetricId kInvRequestsQueued = metric_id("invocation.requests_queued");
inline constexpr MetricId kInvCallsSent = metric_id("invocation.calls_sent");
inline constexpr MetricId kInvCallsRetried = metric_id("invocation.calls_retried");
inline constexpr MetricId kInvCallsTimedOut = metric_id("invocation.calls_timed_out");
inline constexpr MetricId kInvCallsCompleted = metric_id("invocation.calls_completed");
inline constexpr MetricId kInvCallsFailed = metric_id("invocation.calls_failed");
inline constexpr MetricId kInvRepliesCollected = metric_id("invocation.replies_collected");
inline constexpr MetricId kInvRmRepliesCollected = metric_id("invocation.rm_replies_collected");
inline constexpr MetricId kInvReplyWaitOneway = metric_id("invocation.reply_wait_us.oneway");
inline constexpr MetricId kInvReplyWaitFirst = metric_id("invocation.reply_wait_us.first");
inline constexpr MetricId kInvReplyWaitMajority = metric_id("invocation.reply_wait_us.majority");
inline constexpr MetricId kInvReplyWaitAll = metric_id("invocation.reply_wait_us.all");
inline constexpr MetricId kInvReplyWaitOther = metric_id("invocation.reply_wait_us.other");
/// Requests dropped at a server because their deadline had already passed
/// (graceful degradation: shed work nobody is waiting for).
inline constexpr MetricId kInvShed = metric_id("invocation.shed");
/// Bind admissions refused because the server endpoint was overloaded; the
/// client's invite times out and its capped backoff defers the retry.
inline constexpr MetricId kInvBindShed = metric_id("invocation.bind_shed");

// -- directory ----------------------------------------------------------------
inline constexpr MetricId kDirectoryEvictions = metric_id("directory.evictions");
/// Gauge: live NSO registrations in the bootstrap directory.
inline constexpr MetricId kDirectorySize = metric_id("directory.size");

// -- replication / recovery ---------------------------------------------------
inline constexpr MetricId kReplicationStateRefounds = metric_id("replication.state_refounds");
inline constexpr MetricId kRecoveryMttr = metric_id("recovery.mttr");

// -- obs (self-observation) ---------------------------------------------------
/// Events evicted from a bounded RingTraceSink; non-zero means the trace is
/// truncated and the profiler/oracle must refuse to attribute from it.
inline constexpr MetricId kObsTraceDropped = metric_id("obs.trace_dropped");

}  // namespace newtop::obs::metric

namespace newtop::obs::phase {

// Profiler phase labels: every invocation's end-to-end latency decomposes
// into these buckets (see src/obs/profiler.hpp).  The segment→bucket
// mapping is defined in profiler.cpp; names here keep report producers and
// consumers (bench JSON, newtop_prof, tests) in agreement.
inline constexpr std::string_view kMarshal = "marshal";
inline constexpr std::string_view kCreditWait = "credit_wait";
inline constexpr std::string_view kWire = "wire";
inline constexpr std::string_view kOrderWait = "order_wait";
inline constexpr std::string_view kCpuWait = "cpu_wait";
inline constexpr std::string_view kExecution = "execution";
inline constexpr std::string_view kReplyCollection = "reply_collection";
/// Diagnostic only (overlaps order_wait; excluded from the phase sum):
/// sequencer DATA arrival → ORDER assignment broadcast.
inline constexpr std::string_view kSequencerTurnaround = "sequencer_turnaround";

inline constexpr std::string_view kAll[] = {kMarshal,  kCreditWait, kWire,           kOrderWait,
                                            kCpuWait,  kExecution,  kReplyCollection};

}  // namespace newtop::obs::phase
