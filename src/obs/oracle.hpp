// Trace-driven protocol oracle.
//
// Consumes a recorded event stream after a run and checks the guarantees
// the NewTop protocol claims, turning every traced scenario into a
// conformance test:
//
//  * total order   — members of one group deliver their common messages in
//                    the same relative order (causal-order groups exempt),
//  * virtual synchrony — members that share the same pair of consecutive
//                    views delivered the same message set between them,
//  * no duplicates — no member delivers one {epoch, sender, seq} ref twice
//                    within a view lineage (epochs restart after a rejoin),
//  * per-sender FIFO — within one member, group and view lineage, a
//                    sender's delivered seq never goes backwards in one view,
//  * reply accounting — every completed two-way call saw at least the
//                    per-mode minimum of kReplyCollected events first,
//  * config integrity — every delivery is attributed to a configuration
//                    epoch; once a member installs a reconfigured view
//                    (kConfigSwitched) it must never deliver a message that
//                    was ordered under a pre-switch view, and installed
//                    config epochs only advance within a lineage.  Total
//                    order and virtual synchrony hold *across* the switch
//                    for free: the proposal's own delivery is an ordered
//                    event in the same stream the other checks read.
//
// The oracle only reads the stream; it holds no protocol state, so it can
// run over live captures, ring-buffer snapshots or hand-built (mutated)
// traces alike.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace newtop::obs {

struct OracleOptions {
    /// Groups configured for causal (not total) order: exempt from the
    /// identical-delivery-order check.
    std::set<std::uint64_t> causal_groups;
    /// Minimum kReplyCollected events a completed call of a given
    /// invocation mode must have seen (keyed by the mode value packed into
    /// the completion detail).  Mode 0 (one-way) is never checked.  The
    /// defaults are the sound lower bounds — view shrinkage can legally
    /// complete a wait-all call with fewer replies than servers, so
    /// anything tighter must come from a test that controls membership.
    std::map<std::uint64_t, std::size_t> min_replies_by_mode{{1, 1}, {2, 1}, {3, 1}};
};

struct Violation {
    enum class Kind : std::uint8_t {
        kTotalOrder,
        kVirtualSynchrony,
        kDuplicateDelivery,
        kReplyThreshold,
        kTruncatedTrace,
        /// A member delivered a message ordered under a pre-switch view
        /// after installing a newer configuration (or its installed config
        /// epochs regressed): the flush-delimited switch boundary tore.
        kConfigTornDelivery,
        /// A member delivered a sender's message after a later one from
        /// the same sender in the same view.
        kFifo,
    };
    Kind kind{Kind::kTotalOrder};
    std::string message;
};

[[nodiscard]] const char* violation_kind_name(Violation::Kind kind);

class ProtocolOracle {
public:
    ProtocolOracle() = default;
    explicit ProtocolOracle(OracleOptions options) : options_(std::move(options)) {}

    /// Run every check over the stream; empty result = all invariants hold.
    [[nodiscard]] std::vector<Violation> check(const std::vector<TraceEvent>& events) const;

    /// Dump-aware overload: refuses a truncated dump (dropped > 0) with a
    /// single kTruncatedTrace violation instead of judging invariants over
    /// a stream with holes.
    [[nodiscard]] std::vector<Violation> check(const TraceDump& dump) const;

    /// One line per violation, for test failure messages.
    [[nodiscard]] static std::string report(const std::vector<Violation>& violations);

private:
    OracleOptions options_;
};

}  // namespace newtop::obs
