// KnowledgeStore against an in-test reference: a std::map keyed by
// (group, sender) holding (epoch, count), updated one entry at a time with
// the note rule the store documents.  Seeded note/merge scripts drive both
// and compare every snapshot, including merges of unsorted and duplicated
// entries (a hostile frame can carry either), and check that the per-group
// deltas a sender ships add up to the full snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "gcs/knowledge.hpp"
#include "util/rng.hpp"

using namespace newtop;

namespace {

class ReferenceKnowledge {
public:
    void note(const KnowledgeEntry& e) {
        auto& slot = known_[{e.group, e.sender}];
        if (e.epoch > slot.first) {
            slot = {e.epoch, e.count};
        } else if (e.epoch == slot.first) {
            slot.second = std::max(slot.second, e.count);
        }
    }

    [[nodiscard]] std::vector<KnowledgeEntry> snapshot(GroupId excluding) const {
        std::vector<KnowledgeEntry> out;
        for (const auto& [key, value] : known_) {
            if (key.first == excluding) continue;
            out.push_back(KnowledgeEntry{key.first, value.first, key.second, value.second});
        }
        return out;
    }

private:
    std::map<std::pair<GroupId, EndpointId>, std::pair<ViewEpoch, Seqno>> known_;
};

/// A random entry over a small key space, so scripts revisit keys often.
KnowledgeEntry random_entry(Rng& rng) {
    return KnowledgeEntry{GroupId(rng.next_in(1, 5)), rng.next_in(0, 3),
                          EndpointId(rng.next_in(1, 6)), rng.next_in(0, 20)};
}

bool key_less(const KnowledgeEntry& a, const KnowledgeEntry& b) {
    return std::pair{a.group, a.sender} < std::pair{b.group, b.sender};
}

}  // namespace

TEST(KnowledgeStore, NoteKeepsTheLatestEpochAndTheLargestCount) {
    KnowledgeStore store;
    const GroupId g(1);
    const EndpointId p(7);
    store.note(g, 2, p, 5);
    store.note(g, 2, p, 3);  // same epoch, smaller count: kept at 5
    store.note(g, 1, p, 9);  // older epoch: ignored
    ASSERT_EQ(store.entries().size(), 1u);
    EXPECT_EQ(store.entries()[0], (KnowledgeEntry{g, 2, p, 5}));
    store.note(g, 3, p, 1);  // newer epoch replaces, even with a smaller count
    EXPECT_EQ(store.entries()[0], (KnowledgeEntry{g, 3, p, 1}));
}

TEST(KnowledgeStore, SnapshotSkipsTheExcludedGroupAndStaysSorted) {
    KnowledgeStore store;
    store.note(GroupId(3), 1, EndpointId(1), 4);
    store.note(GroupId(1), 1, EndpointId(2), 1);
    store.note(GroupId(2), 1, EndpointId(9), 2);
    store.note(GroupId(2), 1, EndpointId(4), 3);
    const std::vector<KnowledgeEntry> want = {
        {GroupId(1), 1, EndpointId(2), 1},
        {GroupId(3), 1, EndpointId(1), 4},
    };
    EXPECT_EQ(store.snapshot(GroupId(2), 0), want);
    EXPECT_EQ(store.snapshot(GroupId(9), 0).size(), 4u);
    EXPECT_TRUE(std::is_sorted(store.entries().begin(), store.entries().end(), key_less));
}

TEST(KnowledgeStore, VersionMovesOnlyWhenANoteInsertsOrRaises) {
    KnowledgeStore store;
    EXPECT_EQ(store.version(), 0u);
    store.note(GroupId(1), 2, EndpointId(7), 5);  // insert
    EXPECT_EQ(store.version(), 1u);
    store.note(GroupId(1), 2, EndpointId(7), 5);  // same value
    store.note(GroupId(1), 2, EndpointId(7), 3);  // smaller count
    store.note(GroupId(1), 1, EndpointId(7), 9);  // older epoch
    store.merge({{GroupId(1), 2, EndpointId(7), 4}, {GroupId(1), 0, EndpointId(7), 8}});
    EXPECT_EQ(store.version(), 1u);
    store.note(GroupId(1), 2, EndpointId(7), 6);  // larger count
    EXPECT_EQ(store.version(), 2u);
    store.note(GroupId(1), 3, EndpointId(7), 0);  // newer epoch, smaller count
    EXPECT_EQ(store.version(), 3u);
    store.note(GroupId(0), 0, EndpointId(1), 0);  // insert ahead of the others
    EXPECT_EQ(store.version(), 4u);
}

TEST(KnowledgeStore, SnapshotSinceReturnsExactlyTheEntriesChangedAfterIt) {
    KnowledgeStore store;
    store.note(GroupId(1), 1, EndpointId(1), 1);
    store.note(GroupId(2), 1, EndpointId(1), 1);
    store.note(GroupId(3), 1, EndpointId(1), 1);
    const KnowledgeStore::Version v = store.version();
    EXPECT_TRUE(store.snapshot(GroupId(0), v).empty());
    store.note(GroupId(3), 1, EndpointId(1), 2);  // raise
    store.note(GroupId(2), 1, EndpointId(1), 1);  // no-op
    store.note(GroupId(1), 1, EndpointId(5), 1);  // insert inside the vector
    const std::vector<KnowledgeEntry> want = {
        {GroupId(1), 1, EndpointId(5), 1},
        {GroupId(3), 1, EndpointId(1), 2},
    };
    EXPECT_EQ(store.snapshot(GroupId(0), v), want);
    EXPECT_EQ(store.snapshot(GroupId(3), v), (std::vector<KnowledgeEntry>{want[0]}));
    EXPECT_EQ(store.snapshot(GroupId(0), v + 1), (std::vector<KnowledgeEntry>{want[0]}));
    EXPECT_TRUE(store.snapshot(GroupId(0), store.version()).empty());
    EXPECT_EQ(store.snapshot(GroupId(0), 0), store.entries());
}

TEST(KnowledgeStore, MergeAcceptsUnsortedAndDuplicateEntries) {
    KnowledgeStore store;
    store.note(GroupId(2), 1, EndpointId(1), 1);
    store.merge({
        {GroupId(3), 1, EndpointId(1), 2},
        {GroupId(1), 1, EndpointId(1), 3},  // goes backwards
        {GroupId(1), 1, EndpointId(1), 1},  // duplicate key, smaller count
        {GroupId(2), 2, EndpointId(1), 0},  // newer epoch of a known key
        {GroupId(2), 2, EndpointId(1), 4},  // duplicate, larger count
    });
    const std::vector<KnowledgeEntry> want = {
        {GroupId(1), 1, EndpointId(1), 3},
        {GroupId(2), 2, EndpointId(1), 4},
        {GroupId(3), 1, EndpointId(1), 2},
    };
    EXPECT_EQ(store.entries(), want);
}

TEST(KnowledgeStore, MatchesReferenceMapOnSeededScripts) {
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        Rng rng(seed);
        KnowledgeStore store;
        ReferenceKnowledge reference;
        // One receiver per excluded group id: it merges every delta the
        // store ships for that group, as a peer delivering each of a
        // sender's messages in FIFO order would.  `shipped` is the
        // reference snapshot as of each group's previous delta.
        std::array<KnowledgeStore, 6> receivers;
        std::array<KnowledgeStore::Version, 6> sent_at{};
        std::array<std::vector<KnowledgeEntry>, 6> shipped;
        for (int op = 0; op < 200; ++op) {
            const std::uint64_t kind = rng.next_in(0, 3);
            if (kind == 0) {
                const KnowledgeEntry e = random_entry(rng);
                store.note(e.group, e.epoch, e.sender, e.count);
                reference.note(e);
            } else {
                // A merge input: a peer's snapshot (sorted, unique keys),
                // or a hostile one, sorted with duplicate keys or in
                // random order.
                std::vector<KnowledgeEntry> input;
                const std::uint64_t n = rng.next_in(0, 8);
                input.reserve(n);
                for (std::uint64_t i = 0; i < n; ++i) input.push_back(random_entry(rng));
                if (kind == 1) {
                    std::sort(input.begin(), input.end(), key_less);
                    input.erase(std::unique(input.begin(), input.end(),
                                            [](const auto& a, const auto& b) {
                                                return !key_less(a, b) && !key_less(b, a);
                                            }),
                                input.end());
                } else if (kind == 2) {
                    std::sort(input.begin(), input.end(), key_less);
                }
                store.merge(input);
                for (const KnowledgeEntry& e : input) reference.note(e);
            }
            const GroupId excluding(rng.next_in(0, 5));
            const std::vector<KnowledgeEntry> full = reference.snapshot(excluding);
            ASSERT_EQ(store.snapshot(excluding, 0), full) << "seed " << seed << " op " << op;

            // The delta is exactly what changed since this group's previous one.
            const std::size_t r = excluding.value();
            std::vector<KnowledgeEntry> changed;
            std::copy_if(full.begin(), full.end(), std::back_inserter(changed),
                         [&](const KnowledgeEntry& e) {
                             return std::find(shipped[r].begin(), shipped[r].end(), e) ==
                                    shipped[r].end();
                         });
            const std::vector<KnowledgeEntry> delta = store.snapshot(excluding, sent_at[r]);
            ASSERT_EQ(delta, changed) << "seed " << seed << " op " << op;
            sent_at[r] = store.version();
            shipped[r] = full;
            receivers[r].merge(delta);
            ASSERT_EQ(receivers[r].entries(), full) << "seed " << seed << " op " << op;
        }
        ASSERT_EQ(store.entries(), reference.snapshot(GroupId(0))) << "seed " << seed;
    }
}
