// KnowledgeStore: one endpoint's cross-group causal knowledge.
//
// Per (group, sender) it keeps the latest view epoch heard of and how many
// stream messages `sender` is known to have sent in it.  Every DATA message
// an endpoint sends carries the part of it that changed since the sender's
// previous DATA message in that group's view (the fig. 7 barriers), and
// every delivery merges the carried entries back in, so the store sits on
// the per-message path twice.  It is one vector sorted by (group, sender)
// with a parallel vector of change stamps: a note is a binary search, and a
// snapshot is one filtered pass.
#pragma once

#include <cstdint>
#include <vector>

#include "gcs/messages.hpp"
#include "gcs/types.hpp"

namespace newtop {

class KnowledgeStore {
public:
    /// The store-wide change counter: it moves by one each time a note
    /// inserts an entry or raises one, and stamps that entry.
    using Version = std::uint64_t;

    /// Record that `sender` has sent at least `count` messages in epoch
    /// `epoch` of `group`.  A later epoch replaces what was known, the same
    /// epoch keeps the larger count, an earlier one is ignored — so the
    /// (epoch, count) pair only grows, and notes commute.  A note that
    /// changes nothing leaves version() alone.
    void note(GroupId group, ViewEpoch epoch, EndpointId sender, Seqno count);

    /// Note every entry of a received knowledge vector, in any order and
    /// with duplicates (a hostile frame can carry either).
    void merge(const std::vector<KnowledgeEntry>& entries);

    /// The entries changed after `since`, except `excluding`'s own, sorted
    /// by (group, sender).  `since = 0` is everything known.
    [[nodiscard]] std::vector<KnowledgeEntry> snapshot(GroupId excluding, Version since) const;

    /// The stamp of the latest change (0 for an empty store).
    [[nodiscard]] Version version() const { return version_; }

    /// The whole store, sorted by (group, sender), one entry per key.
    [[nodiscard]] const std::vector<KnowledgeEntry>& entries() const { return entries_; }

private:
    std::vector<KnowledgeEntry> entries_;
    /// stamps_[i] is the version at which entries_[i] last changed.
    std::vector<Version> stamps_;
    Version version_{0};
};

}  // namespace newtop
