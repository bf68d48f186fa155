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

/// Raise `slot` to `seen` under (epoch, count) order.
void raise(KnowledgeEntry& slot, const KnowledgeEntry& seen) {
    if (seen.epoch > slot.epoch) {
        slot.epoch = seen.epoch;
        slot.count = seen.count;
    } else if (seen.epoch == slot.epoch) {
        slot.count = std::max(slot.count, seen.count);
    }
}

}  // namespace

void KnowledgeStore::note(GroupId group, ViewEpoch epoch, EndpointId sender, Seqno count) {
    const KnowledgeEntry seen{group, epoch, sender, count};
    const auto it = std::lower_bound(entries_.begin(), entries_.end(), seen, key_less);
    if (it != entries_.end() && same_key(*it, seen)) {
        raise(*it, seen);
    } else {
        entries_.insert(it, seen);
    }
}

void KnowledgeStore::merge(const std::vector<KnowledgeEntry>& entries) {
    for (const KnowledgeEntry& e : entries) note(e.group, e.epoch, e.sender, e.count);
}

std::vector<KnowledgeEntry> KnowledgeStore::snapshot(GroupId excluding) const {
    const auto [skip_begin, skip_end] = std::equal_range(
        entries_.begin(), entries_.end(), KnowledgeEntry{excluding, 0, EndpointId{}, 0},
        [](const KnowledgeEntry& a, const KnowledgeEntry& b) { return a.group < b.group; });
    std::vector<KnowledgeEntry> out;
    out.reserve(entries_.size() - static_cast<std::size_t>(skip_end - skip_begin));
    out.insert(out.end(), entries_.begin(), skip_begin);
    out.insert(out.end(), skip_end, entries_.end());
    return out;
}

}  // namespace newtop
