#include "obs/oracle.hpp"

#include <algorithm>
#include <utility>

namespace newtop::obs {

namespace {

std::string format_ref(std::uint64_t packed) {
    return "{epoch " + std::to_string((packed >> 48) & 0xffff) + ", sender " +
           std::to_string((packed >> 32) & 0xffff) + ", seq " +
           std::to_string(packed & 0xffffffff) + "}";
}

std::string format_view(std::uint64_t detail) {
    return "epoch " + std::to_string(view_detail_epoch(detail)) + "/digest " +
           std::to_string(detail >> 32);
}

}  // namespace

const char* violation_kind_name(Violation::Kind kind) {
    switch (kind) {
        case Violation::Kind::kTotalOrder: return "total_order";
        case Violation::Kind::kVirtualSynchrony: return "virtual_synchrony";
        case Violation::Kind::kDuplicateDelivery: return "duplicate_delivery";
        case Violation::Kind::kReplyThreshold: return "reply_threshold";
        case Violation::Kind::kTruncatedTrace: return "truncated_trace";
        case Violation::Kind::kConfigTornDelivery: return "config_torn_delivery";
        case Violation::Kind::kFifo: return "fifo";
    }
    return "?";
}

std::vector<Violation> ProtocolOracle::check(const TraceDump& dump) const {
    if (dump.dropped != 0) {
        return {{Violation::Kind::kTruncatedTrace,
                 std::to_string(dump.dropped) +
                     " events were evicted from a bounded sink; invariants cannot be "
                     "judged over a stream with holes. Re-run with a larger trace "
                     "capacity."}};
    }
    return check(dump.events);
}

std::vector<Violation> ProtocolOracle::check(const std::vector<TraceEvent>& events) const {
    std::vector<Violation> out;

    // One linear pass collects each member's interleaved install/delivery
    // timeline and runs the reply-threshold accounting in stream order (a
    // completion must be *preceded* by its replies).  Keeping installs and
    // deliveries interleaved matters: epoch numbers restart when a member
    // is ejected and rejoins a re-formed group, so a delivery can only be
    // attributed to a view by its *position* in the member's stream, never
    // by its epoch number alone.
    struct Entry {
        enum class Kind : std::uint8_t { kInstall, kDelivery, kConfigSwitch };
        Kind kind;
        std::uint64_t value;  // view detail, delivered ref, or config detail
    };
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::vector<Entry>> timeline;
    std::map<std::uint64_t, std::size_t> replies_by_trace;
    for (const TraceEvent& e : events) {
        switch (e.kind) {
            case TraceKind::kDataDelivered:
                timeline[{e.subject, e.actor}].push_back({Entry::Kind::kDelivery, e.detail});
                break;
            case TraceKind::kViewInstalled:
                timeline[{e.subject, e.actor}].push_back({Entry::Kind::kInstall, e.detail});
                break;
            case TraceKind::kConfigSwitched:
                timeline[{e.subject, e.actor}].push_back(
                    {Entry::Kind::kConfigSwitch, e.detail});
                break;
            case TraceKind::kReplyCollected:
                ++replies_by_trace[e.trace];
                break;
            case TraceKind::kCallCompleted: {
                const std::uint64_t mode = completion_detail_mode(e.detail);
                const auto needed = options_.min_replies_by_mode.find(mode);
                if (mode == 0 || needed == options_.min_replies_by_mode.end()) break;
                const std::size_t seen = replies_by_trace[e.trace];
                if (seen < needed->second) {
                    out.push_back(
                        {Violation::Kind::kReplyThreshold,
                         "call completed at member " + std::to_string(e.actor) + " (trace " +
                             std::to_string(e.trace) + ", mode " + std::to_string(mode) +
                             ") after only " + std::to_string(seen) + " collected replies, " +
                             std::to_string(needed->second) + " required"});
                }
                break;
            }
            default: break;
        }
    }

    // -- per-member digestion of the timeline ---------------------------------
    // A "window" is the stretch of a member's stream from one view install
    // to the next.  Cut deliveries for the closing view are traced *before*
    // the successor install, so they land in the window they logically
    // belong to.  A "lineage" is a maximal run of strictly-increasing view
    // epochs: an ejected member rejoining a re-formed group starts a new
    // lineage whose epochs (and therefore seqnos) may collide with refs it
    // delivered before — legitimate, and disambiguated by occurrence index.
    struct Window {
        std::uint64_t view;             // install detail opening the window
        std::set<std::uint64_t> refs;   // deliveries whose epoch matches it
    };
    struct MemberLog {
        std::vector<Window> windows;
        // Every delivery in stream order, keyed {ref, occurrence}: the n-th
        // delivery of one raw ref compares against the n-th elsewhere.
        std::vector<std::pair<std::uint64_t, std::uint32_t>> deliveries;
    };
    std::map<std::pair<std::uint64_t, std::uint64_t>, MemberLog> logs;
    for (const auto& [key, entries] : timeline) {
        MemberLog& log = logs[key];
        std::map<std::uint64_t, std::uint32_t> occurrence;
        std::set<std::uint64_t> in_lineage;  // refs delivered this lineage
        // Highest seq delivered this lineage per {epoch, sender} (the ref's
        // upper half): each view numbers every sender's stream afresh.
        std::map<std::uint64_t, std::uint64_t> last_seq;
        std::uint64_t last_epoch = 0;
        // Config attribution: the view epoch at this lineage's latest
        // configuration switch (0 = still on the creation-time config) and
        // the config epoch it installed.  A lineage restart resets both —
        // a refounded group legitimately starts counting configs afresh.
        std::uint64_t switch_view_epoch = 0;
        std::uint64_t last_config_epoch = 0;
        for (const Entry& entry : entries) {
            if (entry.kind == Entry::Kind::kInstall) {
                const std::uint64_t epoch = view_detail_epoch(entry.value);
                if (epoch <= last_epoch) {  // rejoin lineage
                    in_lineage.clear();
                    last_seq.clear();
                    switch_view_epoch = 0;
                    last_config_epoch = 0;
                }
                last_epoch = epoch;
                log.windows.push_back({entry.value, {}});
                continue;
            }
            if (entry.kind == Entry::Kind::kConfigSwitch) {
                const std::uint64_t cfg = config_detail_config_epoch(entry.value);
                if (cfg <= last_config_epoch) {
                    out.push_back({Violation::Kind::kConfigTornDelivery,
                                   "member " + std::to_string(key.second) + " in group " +
                                       std::to_string(key.first) +
                                       " installed config epoch " + std::to_string(cfg) +
                                       " after already running config epoch " +
                                       std::to_string(last_config_epoch)});
                }
                last_config_epoch = cfg;
                switch_view_epoch = config_detail_view_epoch(entry.value) & 0xffff;
                continue;
            }
            const std::uint64_t ref = entry.value;
            // Every delivery is attributed to the config regime in force:
            // after a switch at view v, a ref ordered under a view < v is a
            // pre-switch message leaking past the flush boundary.
            if (switch_view_epoch != 0 && ((ref >> 48) & 0xffff) < switch_view_epoch) {
                out.push_back({Violation::Kind::kConfigTornDelivery,
                               "member " + std::to_string(key.second) + " delivered " +
                                   format_ref(ref) + " in group " +
                                   std::to_string(key.first) +
                                   " after switching to config epoch " +
                                   std::to_string(last_config_epoch) + " at view epoch " +
                                   std::to_string(switch_view_epoch)});
            }
            log.deliveries.emplace_back(ref, occurrence[ref]++);
            const std::uint64_t seq = ref & 0xffffffff;
            const auto [last, fresh] = last_seq.try_emplace(ref >> 32, seq);
            if (!fresh && seq < last->second) {
                out.push_back({Violation::Kind::kFifo,
                               "member " + std::to_string(key.second) + " delivered " +
                                   format_ref(ref) + " in group " +
                                   std::to_string(key.first) + " after seq " +
                                   std::to_string(last->second) + " of the same sender"});
            } else {
                last->second = seq;
            }
            if (!in_lineage.insert(ref).second) {
                out.push_back({Violation::Kind::kDuplicateDelivery,
                               "member " + std::to_string(key.second) + " delivered " +
                                   format_ref(ref) + " twice in group " +
                                   std::to_string(key.first)});
            }
            if (!log.windows.empty() &&
                ((ref >> 48) & 0xffff) ==
                    (view_detail_epoch(log.windows.back().view) & 0xffff)) {
                log.windows.back().refs.insert(ref);
            }
        }
    }

    // -- identical delivery order of common messages --------------------------
    // Pairwise: project member B's log onto the refs member A also
    // delivered and require A's positions to be strictly increasing.
    std::map<std::uint64_t, std::vector<std::uint64_t>> members_of;  // group -> actors
    for (const auto& [key, log] : logs) {
        if (!log.deliveries.empty()) members_of[key.first].push_back(key.second);
    }
    for (const auto& [group, members] : members_of) {
        if (options_.causal_groups.contains(group)) continue;
        for (std::size_t a = 0; a < members.size(); ++a) {
            std::map<std::pair<std::uint64_t, std::uint32_t>, std::size_t> position;
            const auto& log_a = logs.at({group, members[a]}).deliveries;
            for (std::size_t i = 0; i < log_a.size(); ++i) position.emplace(log_a[i], i);
            for (std::size_t b = a + 1; b < members.size(); ++b) {
                const auto& log_b = logs.at({group, members[b]}).deliveries;
                std::size_t last = 0;
                bool have_last = false;
                std::uint64_t last_ref = 0;
                for (const auto& ref : log_b) {
                    const auto it = position.find(ref);
                    if (it == position.end()) continue;
                    if (have_last && it->second <= last) {
                        out.push_back({Violation::Kind::kTotalOrder,
                                       "group " + std::to_string(group) + ": members " +
                                           std::to_string(members[a]) + " and " +
                                           std::to_string(members[b]) +
                                           " disagree on the order of " + format_ref(last_ref) +
                                           " vs " + format_ref(ref.first)});
                        break;
                    }
                    last = it->second;
                    last_ref = ref.first;
                    have_last = true;
                }
            }
        }
    }

    // -- virtual synchrony -----------------------------------------------------
    // A member's deliveries for view v are finalized when it installs v's
    // successor (the cut runs first), so every member sharing the same
    // (v, v') transition must have delivered the same epoch(v) set inside
    // that window.  A member's final view has no successor and is not
    // checked — that is exactly the crash/partition allowance.  The key
    // carries an occurrence index so a transition that repeats in one
    // member's stream (epoch reuse across lineages) matches instance-wise.
    struct TransitionKey {
        std::uint64_t group, from, to;
        std::uint32_t occurrence;
        auto operator<=>(const TransitionKey&) const = default;
    };
    std::map<TransitionKey, std::map<std::uint64_t, std::set<std::uint64_t>>> transitions;
    for (const auto& [key, log] : logs) {
        std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint32_t> seen_transition;
        for (std::size_t i = 0; i + 1 < log.windows.size(); ++i) {
            const std::uint64_t from = log.windows[i].view;
            const std::uint64_t to = log.windows[i + 1].view;
            const std::uint32_t occurrence = seen_transition[{from, to}]++;
            transitions[{key.first, from, to, occurrence}][key.second] =
                log.windows[i].refs;
        }
    }
    for (const auto& [key, by_member] : transitions) {
        const auto& reference = by_member.begin()->second;
        for (const auto& [member, set] : by_member) {
            if (set == reference) continue;
            std::vector<std::uint64_t> diff;
            std::set_symmetric_difference(set.begin(), set.end(), reference.begin(),
                                          reference.end(), std::back_inserter(diff));
            out.push_back({Violation::Kind::kVirtualSynchrony,
                           "group " + std::to_string(key.group) + ": members " +
                               std::to_string(by_member.begin()->first) + " and " +
                               std::to_string(member) +
                               " delivered different sets between views [" +
                               format_view(key.from) + " -> " + format_view(key.to) +
                               "], e.g. " + format_ref(diff.front())});
        }
    }

    return out;
}

std::string ProtocolOracle::report(const std::vector<Violation>& violations) {
    std::string out;
    for (const Violation& v : violations) {
        out += violation_kind_name(v.kind);
        out += ": ";
        out += v.message;
        out += '\n';
    }
    return out;
}

}  // namespace newtop::obs
