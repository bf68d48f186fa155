// Recycled std::map nodes for maps on the per-message path.
//
// A std::map allocates one node per insert and frees it per erase, so a
// map that holds each in-flight message or call for a while (the ORB's
// pending calls, a group's unstable store) costs an allocation per
// message.  SpareNodes keeps the nodes of erased entries, emptied, and
// hands them to later inserts: a steady entry rate allocates no nodes.
// At most `limit` spares are kept; a larger burst of erases frees the
// surplus as a plain erase would.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace newtop {

template <class Map>
class SpareNodes {
public:
    using Key = typename Map::key_type;
    using Value = typename Map::mapped_type;
    using Iterator = typename Map::iterator;

    explicit SpareNodes(std::size_t limit) : limit_(limit) {}

    /// map.emplace(key, value), in a spare node when there is one.  An
    /// existing entry for `key` wins, as with emplace.
    Iterator insert(Map& map, const Key& key, Value value) {
        if (spare_.empty()) return map.emplace(key, std::move(value)).first;
        typename Map::node_type node = std::move(spare_.back());
        spare_.pop_back();
        node.key() = key;
        node.mapped() = std::move(value);
        auto inserted = map.insert(std::move(node));
        if (!inserted.inserted) keep(std::move(inserted.node));
        return inserted.position;
    }

    /// map.erase(first, last), keeping the nodes.  The erased values are
    /// destroyed at once, as with erase.
    void erase(Map& map, Iterator first, Iterator last) {
        while (first != last) keep(map.extract(first++));
    }
    void erase(Map& map, Iterator it) { keep(map.extract(it)); }

private:
    void keep(typename Map::node_type node) {
        if (spare_.size() == limit_) return;  // freed here
        node.mapped() = Value{};
        spare_.push_back(std::move(node));
    }

    std::size_t limit_;
    std::vector<typename Map::node_type> spare_;
};

}  // namespace newtop
