// Passive (primary-backup) replication on top of the invocation layer.
//
// The paper's recipe (§4.2): bind clients with the *restricted group* +
// *asynchronous message forwarding* optimisations so the request manager,
// the sequencer and the primary are all the same member.  The primary
// executes and answers; the backups receive every request through the
// ordered channel but only log it.  The primary periodically ships
// checkpoints (full state snapshots tagged with a position in the request
// stream); a backup applies a checkpoint and discards the covered prefix
// of its log.  On primary failure the next-ranked member replays its log
// past its last checkpoint and takes over.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "newtop/newtop_service.hpp"
#include "replication/stateful_servant.hpp"

namespace newtop {

/// ORB method id of the checkpoint receiver object.
inline constexpr std::uint32_t kCheckpointInstallMethod = 311;

/// A position in the totally-ordered request stream: (view epoch, index of
/// the request within that epoch).  Identical at every member because all
/// members deliver the same requests in the same order per view.
struct StreamPos {
    ViewEpoch epoch{0};
    std::uint64_t index{0};

    friend auto operator<=>(const StreamPos&, const StreamPos&) = default;
};

void wire(auto& io, WireOf<StreamPos> auto& v) { io(v.epoch, v.index); }

/// Argument of kCheckpointInstallMethod: the primary's state snapshot,
/// covering every request before `pos`.
struct Checkpoint {
    StreamPos pos;
    Bytes snapshot;
};

void wire(auto& io, WireOf<Checkpoint> auto& v) { io(v.pos, v.snapshot); }

struct PassiveOptions {
    /// Ship a checkpoint to the backups after every N executed requests.
    std::uint32_t checkpoint_every{4};
};

class PassiveReplica {
public:
    /// Serve `service` passively.  The group config should use the
    /// asymmetric ordering protocol (sequencer = primary); clients should
    /// bind with {restricted = true, async_forwarding = true}.
    PassiveReplica(NewTopService& nso, std::string service, const GroupConfig& config,
                   std::shared_ptr<StatefulServant> app, PassiveOptions options = {});

    PassiveReplica(const PassiveReplica&) = delete;
    PassiveReplica& operator=(const PassiveReplica&) = delete;

    /// True while this member is the executing primary.
    [[nodiscard]] bool is_primary() const;

    /// Requests executed by this member (as primary, including failover
    /// replay).
    [[nodiscard]] std::uint64_t executed() const;

    /// Requests currently logged, awaiting a checkpoint (backups only).
    [[nodiscard]] std::size_t log_size() const;

    [[nodiscard]] const std::string& service() const { return service_; }

private:
    class Shim;
    class CheckpointServant;

    NewTopService* nso_;
    std::string service_;
    std::shared_ptr<Shim> shim_;
};

}  // namespace newtop
