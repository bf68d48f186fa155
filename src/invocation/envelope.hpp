// Invocation-layer wire envelopes.
//
// These ride as payloads of GCS multicasts (requests, forwards, in-group
// replies, aggregates) or of direct ORB oneways (closed-mode replies sent
// "directly" to the client, §2.1).  Each struct's `wire` function is its one
// field list (serial/encoder.hpp).
#pragma once

#include <variant>
#include <vector>

#include "gcs/messages.hpp"
#include "invocation/types.hpp"
#include "serial/serial.hpp"

namespace newtop {

/// Request flags (bit set).
inline constexpr std::uint8_t kFlagAsyncForwarding = 1 << 0;
/// The forward is informational only: execute but do not reply (used for
/// the passive side of asynchronous forwarding).
inline constexpr std::uint8_t kFlagNoReply = 1 << 1;

void wire(auto& io, WireOf<CallId> auto& v) { io(v.origin, v.seq, v.group_origin); }

void wire(auto& io, WireOf<ReplyEntry> auto& v) { io(v.replier, v.ok, v.value); }

/// Client -> server(s).  In open mode, multicast in the client/server
/// group; in closed mode, multicast in the access group.
struct RequestEnv {
    CallId call;
    obs::SpanContext span;  // the client span issuing this call
    InvocationMode mode{InvocationMode::kWaitFirst};
    std::uint8_t flags{0};
    GroupId server_group;  // which service this call targets
    BindMode bind{BindMode::kOpen};
    std::uint32_t method{0};
    Bytes args;
    /// Absolute sim time after which the client has given up on this call
    /// (stamped from the binding's call_timeout at each send; 0 = none).
    /// Servers shed work for expired calls instead of burning CPU on
    /// replies nobody is waiting for.
    SimTime deadline{0};
};

void wire(auto& io, WireOf<RequestEnv> auto& v) {
    io(v.call, v.span, v.mode, v.flags, v.server_group, v.bind, v.method, v.args, v.deadline);
}

/// Request manager -> server group (step (ii) of fig. 4).
struct ForwardEnv {
    CallId call;
    obs::SpanContext span;  // the request-manager span driving the forward
    InvocationMode mode{InvocationMode::kWaitFirst};
    std::uint8_t flags{0};
    EndpointId manager;  // who is collecting replies
    std::uint32_t method{0};
    Bytes args;
    /// Client deadline carried over from the RequestEnv (0 = none).
    SimTime deadline{0};
};

void wire(auto& io, WireOf<ForwardEnv> auto& v) {
    io(v.call, v.span, v.mode, v.flags, v.manager, v.method, v.args, v.deadline);
}

/// One server's reply.  Multicast within the server group (open mode,
/// fig. 4(iii)) or sent directly to the client (closed mode).
struct ReplyEnv {
    CallId call;
    obs::SpanContext span;  // the replier's execution span
    EndpointId replier;
    bool ok{true};
    Bytes value;
};

void wire(auto& io, WireOf<ReplyEnv> auto& v) { io(v.call, v.span, v.replier, v.ok, v.value); }

/// Request manager -> client(s): the gathered replies (fig. 4(iv)).
struct AggregateEnv {
    CallId call;
    obs::SpanContext span;  // the request-manager span that collected
    bool complete{true};
    std::vector<ReplyEntry> replies;
};

void wire(auto& io, WireOf<AggregateEnv> auto& v) { io(v.call, v.span, v.complete, v.replies); }

/// Tagged like GcsMessage: the alternative's index + 1.
using InvocationEnvelope = std::variant<RequestEnv, ForwardEnv, ReplyEnv, AggregateEnv>;

inline Bytes encode_envelope(const InvocationEnvelope& env) { return encode_to_bytes(env); }
inline InvocationEnvelope decode_envelope(const Bytes& wire) {
    return decode_from_bytes<InvocationEnvelope>(wire);
}

}  // namespace newtop
