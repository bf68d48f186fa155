// KnowledgeStore: one endpoint's cross-group causal knowledge.
//
// Per (group, sender) it keeps the latest view epoch heard of and how many
// stream messages `sender` is known to have sent in it.  Every DATA message
// an endpoint sends carries a snapshot (the fig. 7 barriers), and every
// delivery merges the carried snapshot back in, so the store sits on the
// per-message path twice.  It is one vector sorted by (group, sender):
// a snapshot is a reserved copy of two contiguous ranges, and a note is a
// binary search.
#pragma once

#include <vector>

#include "gcs/messages.hpp"
#include "gcs/types.hpp"

namespace newtop {

class KnowledgeStore {
public:
    /// Record that `sender` has sent at least `count` messages in epoch
    /// `epoch` of `group`.  A later epoch replaces what was known, the same
    /// epoch keeps the larger count, an earlier one is ignored — so the
    /// (epoch, count) pair only grows, and notes commute.
    void note(GroupId group, ViewEpoch epoch, EndpointId sender, Seqno count);

    /// Note every entry of a received knowledge vector, in any order and
    /// with duplicates (a hostile frame can carry either).
    void merge(const std::vector<KnowledgeEntry>& entries);

    /// Everything known except `excluding`'s own entries, sorted by
    /// (group, sender).
    [[nodiscard]] std::vector<KnowledgeEntry> snapshot(GroupId excluding) const;

    /// The whole store, sorted by (group, sender), one entry per key.
    [[nodiscard]] const std::vector<KnowledgeEntry>& entries() const { return entries_; }

private:
    std::vector<KnowledgeEntry> entries_;
};

}  // namespace newtop
