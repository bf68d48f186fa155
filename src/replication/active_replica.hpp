// Active replication with state transfer for joining members.
//
// The invocation layer already provides active replication for replicas
// that are present from the start: totally-ordered forwards + deterministic
// servants keep copies identical.  What it does not provide is *growth*: a
// member joining a running group starts with empty state.  ActiveReplica
// adds the missing state transfer:
//
//   * every replica wraps its application servant in a shim that counts
//     executions and intercepts sync markers,
//   * when a view with joiners installs, the senior continuing member (the
//     donor) multicasts a sync marker through the ordered channel; because
//     the marker is executed in-stream, the donor's snapshot at the marker
//     reflects exactly the requests ordered before it,
//   * joiners buffer executions, discard those ordered before the marker
//     (the snapshot covers them), apply the snapshot when it arrives, then
//     replay the rest — exactly-once, no gaps,
//   * while unsynced, a joiner answers with an exception rather than a
//     wrong value.
#pragma once

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "newtop/newtop_service.hpp"
#include "replication/stateful_servant.hpp"

namespace newtop {

/// ORB method ids of the replica's state-transfer servant.
inline constexpr std::uint32_t kStateInstallMethod = 301;
inline constexpr std::uint32_t kStateRequestMethod = 302;

/// Reserved invocation-method id carrying sync markers through the
/// ordered request stream (applications must not use it).
inline constexpr std::uint32_t kSyncMarkerMethod = 0xffffffff;

/// Argument of a sync marker: `donor` snapshots its state at the marker's
/// position in the request order and ships it to `joiners`.
struct SyncMarker {
    EndpointId donor;
    std::vector<EndpointId> joiners;
};

void wire(auto& io, WireOf<SyncMarker> auto& v) { io(v.donor, v.joiners); }

class ActiveReplica {
public:
    /// Serve `service` with `app`, joining the replica group (creating it
    /// if this is the first member).  A joiner synchronises its state from
    /// the group before answering.
    ActiveReplica(NewTopService& nso, std::string service, const GroupConfig& config,
                  std::shared_ptr<StatefulServant> app);

    ActiveReplica(const ActiveReplica&) = delete;
    ActiveReplica& operator=(const ActiveReplica&) = delete;

    /// True once this replica holds authoritative state (immediately for
    /// founding members; after state transfer for joiners).
    [[nodiscard]] bool synced() const;

    /// Requests executed against the application servant so far.
    [[nodiscard]] std::uint64_t executed() const;

    [[nodiscard]] const std::string& service() const { return service_; }

private:
    class Shim;
    class TransferServant;

    NewTopService* nso_;
    std::string service_;
    std::shared_ptr<Shim> shim_;
};

}  // namespace newtop
