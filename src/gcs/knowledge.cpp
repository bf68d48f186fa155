#include "gcs/knowledge.hpp"

#include <algorithm>

namespace newtop {

namespace {

/// (group, sender) order: the store's sort key.
bool key_less(const KnowledgeEntry& a, const KnowledgeEntry& b) {
    return a.group != b.group ? a.group < b.group : a.sender < b.sender;
}

bool same_key(const KnowledgeEntry& a, const KnowledgeEntry& b) {
    return a.group == b.group && a.sender == b.sender;
}

/// Raise `slot` to `seen` under (epoch, count) order; true if it moved.
bool raise(KnowledgeEntry& slot, const KnowledgeEntry& seen) {
    if (seen.epoch > slot.epoch) {
        slot.epoch = seen.epoch;
        slot.count = seen.count;
        return true;
    }
    if (seen.epoch == slot.epoch && seen.count > slot.count) {
        slot.count = seen.count;
        return true;
    }
    return false;
}

}  // namespace

void KnowledgeStore::note(GroupId group, ViewEpoch epoch, EndpointId sender, Seqno count) {
    const KnowledgeEntry seen{group, epoch, sender, count};
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), seen, key_less);
    const auto slot = static_cast<std::size_t>(it - entries_.begin());
    if (it != entries_.end() && same_key(*it, seen)) {
        if (raise(*it, seen)) stamps_[slot] = ++version_;
    } else {
        entries_.insert(it, seen);
        stamps_.insert(stamps_.begin() + static_cast<std::ptrdiff_t>(slot), ++version_);
    }
}

void KnowledgeStore::merge(const std::vector<KnowledgeEntry>& entries) {
    for (const KnowledgeEntry& e : entries) note(e.group, e.epoch, e.sender, e.count);
}

std::vector<KnowledgeEntry> KnowledgeStore::snapshot(GroupId excluding, Version since) const {
    const auto wanted = [&](std::size_t i) {
        return stamps_[i] > since && entries_[i].group != excluding;
    };
    std::size_t n = 0;
    for (std::size_t i = 0; i < entries_.size(); ++i) n += wanted(i) ? 1 : 0;
    std::vector<KnowledgeEntry> out;
    out.reserve(n);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (wanted(i)) out.push_back(entries_[i]);
    }
    return out;
}

}  // namespace newtop
