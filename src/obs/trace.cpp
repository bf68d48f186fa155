#include "obs/trace.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"
#include "obs/names.hpp"

namespace newtop::obs {

const char* trace_kind_name(TraceKind kind) {
    switch (kind) {
        case TraceKind::kMulticastSent: return "multicast_sent";
        case TraceKind::kDataOnWire: return "data_on_wire";
        case TraceKind::kNullOnWire: return "null_on_wire";
        case TraceKind::kOrderOnWire: return "order_on_wire";
        case TraceKind::kViewInstalled: return "view_installed";
        case TraceKind::kFlushSent: return "flush_sent";
        case TraceKind::kRequestQueued: return "request_queued";
        case TraceKind::kRequestSent: return "request_sent";
        case TraceKind::kRequestRetried: return "request_retried";
        case TraceKind::kReplyCollected: return "reply_collected";
        case TraceKind::kCallCompleted: return "call_completed";
        case TraceKind::kCallFailed: return "call_failed";
        case TraceKind::kCallTimedOut: return "call_timed_out";
        case TraceKind::kRebound: return "rebound";
        case TraceKind::kDataDelivered: return "data_delivered";
        case TraceKind::kCutDelivered: return "cut_delivered";
        case TraceKind::kViewChangeBegun: return "view_change_begun";
        case TraceKind::kRequestForwarded: return "request_forwarded";
        case TraceKind::kAggregateSent: return "aggregate_sent";
        case TraceKind::kExecutionBegun: return "execution_begun";
        case TraceKind::kExecutionDone: return "execution_done";
        case TraceKind::kSendQueued: return "send_queued";
        case TraceKind::kPayloadShipped: return "payload_shipped";
        case TraceKind::kDataArrived: return "data_arrived";
        case TraceKind::kPayloadDelivered: return "payload_delivered";
        case TraceKind::kOrderAssigned: return "order_assigned";
        case TraceKind::kConfigProposed: return "config_proposed";
        case TraceKind::kConfigSwitched: return "config_switched";
        case TraceKind::kSuspected: return "suspected";
        case TraceKind::kRequestShed: return "request_shed";
        case TraceKind::kBindShed: return "bind_shed";
    }
    return "?";
}

std::size_t trace_kind_index_from_name(std::string_view name) {
    for (std::size_t i = 0; i < kTraceKindCount; ++i) {
        if (name == trace_kind_name(static_cast<TraceKind>(i))) return i;
    }
    return kTraceKindCount;
}

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t invocation_trace_id(std::uint64_t origin, std::uint64_t seq, bool group_origin) {
    std::uint64_t id = mix64(mix64(origin ^ (group_origin ? 0x8000000000000000ULL : 0)) + seq);
    return id == 0 ? 1 : id;
}

std::uint64_t span_id(std::uint64_t trace, std::uint64_t actor, SpanRole role) {
    std::uint64_t id = mix64(mix64(trace + actor) + static_cast<std::uint64_t>(role));
    return id == 0 ? 1 : id;
}

std::uint64_t multicast_trace_id(std::uint64_t endpoint, std::uint64_t counter) {
    std::uint64_t id = mix64(mix64(endpoint ^ 0x4d43415354ULL) + counter);  // "MCAST"
    return id == 0 ? 1 : id;
}

std::size_t VectorTraceSink::count(TraceKind kind) const {
    return static_cast<std::size_t>(
        std::count_if(events_.begin(), events_.end(),
                      [kind](const TraceEvent& e) { return e.kind == kind; }));
}

namespace {

void append_event_json(std::string& out, const TraceEvent& e) {
    out += "{\"at\":" + std::to_string(e.at);
    out += ",\"kind\":\"";
    out += trace_kind_name(e.kind);
    out += "\",\"actor\":" + std::to_string(e.actor);
    out += ",\"subject\":" + std::to_string(e.subject);
    out += ",\"detail\":" + std::to_string(e.detail);
    if (e.trace != 0) {
        out += ",\"trace\":" + std::to_string(e.trace);
        out += ",\"span\":" + std::to_string(e.span);
        out += ",\"parent\":" + std::to_string(e.parent);
    }
    out += '}';
}

}  // namespace

std::string VectorTraceSink::to_json() const {
    std::string out = "[";
    bool first = true;
    for (const TraceEvent& e : events_) {
        if (!first) out += ',';
        first = false;
        append_event_json(out, e);
    }
    out += ']';
    return out;
}

std::string TraceDump::to_json() const {
    std::string out = "{\"dropped\":" + std::to_string(dropped);
    out += ",\"expectations\":[";
    bool first = true;
    for (const TraceExpectation& x : expectations) {
        if (!first) out += ',';
        first = false;
        out += "{\"metric\":\"";
        out += x.metric;
        out += "\",\"count\":" + std::to_string(x.count);
        out += ",\"sum_us\":" + std::to_string(x.sum_us) + "}";
    }
    out += "],\"events\":[";
    first = true;
    for (const TraceEvent& e : events) {
        if (!first) out += ',';
        first = false;
        append_event_json(out, e);
    }
    out += "]}";
    return out;
}

// -- TraceDump parsing --------------------------------------------------------
//
// A deliberately minimal recursive-descent parser for exactly the JSON that
// TraceDump::to_json() emits (plus arbitrary key order and whitespace).  No
// external JSON dependency exists in this tree and the profiler only ever
// reads its own dumps, so strictness beats generality here.

namespace {

struct DumpParser {
    std::string_view s;
    std::size_t i{0};
    std::string err;

    bool fail(std::string message) {
        if (err.empty()) err = std::move(message) + " at offset " + std::to_string(i);
        return false;
    }

    void skip_ws() {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
            ++i;
        }
    }

    bool consume(char c) {
        skip_ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return fail(std::string("expected '") + c + "'");
    }

    bool peek(char c) {
        skip_ws();
        return i < s.size() && s[i] == c;
    }

    bool parse_string(std::string& out) {
        out.clear();
        if (!consume('"')) return false;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size()) return fail("unterminated escape");
                switch (s[i]) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 't': out += '\t'; break;
                    default: return fail("unsupported escape");
                }
                ++i;
            } else {
                out += s[i++];
            }
        }
        if (i >= s.size()) return fail("unterminated string");
        ++i;  // closing quote
        return true;
    }

    bool parse_int(std::int64_t& out) {
        skip_ws();
        const bool negative = i < s.size() && s[i] == '-';
        if (negative) ++i;
        if (i >= s.size() || s[i] < '0' || s[i] > '9') return fail("expected integer");
        std::uint64_t magnitude = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            magnitude = magnitude * 10 + static_cast<std::uint64_t>(s[i] - '0');
            ++i;
        }
        out = negative ? -static_cast<std::int64_t>(magnitude)
                       : static_cast<std::int64_t>(magnitude);
        return true;
    }

    bool parse_uint(std::uint64_t& out) {
        skip_ws();
        if (i >= s.size() || s[i] < '0' || s[i] > '9') return fail("expected integer");
        out = 0;
        while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
            out = out * 10 + static_cast<std::uint64_t>(s[i] - '0');
            ++i;
        }
        return true;
    }

    /// `{"key": value, ...}`: `field(key)` parses each value.
    template <typename Field>
    bool parse_object(Field&& field) {
        if (!consume('{')) return false;
        for (bool first = true; !peek('}'); first = false) {
            if (!first && !consume(',')) return false;
            std::string key;
            if (!parse_string(key) || !consume(':') || !field(key)) return false;
        }
        return consume('}');
    }

    /// `[item, ...]` appended to `out`, each parsed by `item`.
    template <typename T, typename Item>
    bool parse_array(std::vector<T>& out, Item&& item) {
        if (!consume('[')) return false;
        while (!peek(']')) {
            if (!out.empty() && !consume(',')) return false;
            T x{};
            if (!item(x)) return false;
            out.push_back(std::move(x));
        }
        return consume(']');
    }

    bool parse_expectation(TraceExpectation& out) {
        return parse_object([&](const std::string& key) {
            if (key == "metric") return parse_string(out.metric);
            if (key == "count") return parse_uint(out.count);
            if (key == "sum_us") return parse_int(out.sum_us);
            return fail("unknown expectation key '" + key + "'");
        });
    }

    bool parse_event(TraceEvent& out) {
        return parse_object([&](const std::string& key) {
            if (key == "at") return parse_int(out.at);
            if (key == "kind") {
                std::string name;
                if (!parse_string(name)) return false;
                const std::size_t index = trace_kind_index_from_name(name);
                if (index >= kTraceKindCount) return fail("unknown kind '" + name + "'");
                out.kind = static_cast<TraceKind>(index);
                return true;
            }
            if (key == "actor") return parse_uint(out.actor);
            if (key == "subject") return parse_uint(out.subject);
            if (key == "detail") return parse_uint(out.detail);
            if (key == "trace") return parse_uint(out.trace);
            if (key == "span") return parse_uint(out.span);
            if (key == "parent") return parse_uint(out.parent);
            return fail("unknown event key '" + key + "'");
        });
    }

    bool parse_dump(TraceDump& out) {
        const bool ok = parse_object([&](const std::string& key) {
            if (key == "dropped") return parse_uint(out.dropped);
            if (key == "expectations") {
                return parse_array(out.expectations,
                                   [&](TraceExpectation& x) { return parse_expectation(x); });
            }
            if (key == "events") {
                return parse_array(out.events, [&](TraceEvent& e) { return parse_event(e); });
            }
            return fail("unknown dump key '" + key + "'");
        });
        if (!ok) return false;
        skip_ws();
        if (i != s.size()) return fail("trailing data");
        return true;
    }
};

}  // namespace

bool parse_trace_dump(std::string_view json, TraceDump& out, std::string& error) {
    out = TraceDump{};
    DumpParser parser{json, 0, {}};
    if (parser.parse_dump(out)) return true;
    error = parser.err.empty() ? "malformed trace dump" : parser.err;
    return false;
}

RingTraceSink::RingTraceSink(std::size_t capacity) : buffer_(capacity == 0 ? 1 : capacity) {}

void RingTraceSink::record(const TraceEvent& event) {
    if (size_ == buffer_.size()) {
        ++dropped_;
        if (metrics_ != nullptr) metrics_->add(metric::kObsTraceDropped);
    }
    buffer_[head_] = event;
    head_ = (head_ + 1) % buffer_.size();
    size_ = std::min(size_ + 1, buffer_.size());
}

TraceDump RingTraceSink::dump() const {
    TraceDump out;
    out.dropped = dropped_;
    out.events = snapshot();
    return out;
}

std::vector<TraceEvent> RingTraceSink::snapshot() const {
    std::vector<TraceEvent> out;
    out.reserve(size_);
    const std::size_t start = (head_ + buffer_.size() - size_) % buffer_.size();
    for (std::size_t i = 0; i < size_; ++i) {
        out.push_back(buffer_[(start + i) % buffer_.size()]);
    }
    return out;
}

void RingTraceSink::clear() {
    head_ = 0;
    size_ = 0;
    dropped_ = 0;
}

}  // namespace newtop::obs
