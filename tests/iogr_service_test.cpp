// §2.2's IOGR integration: each replica of a served group is also exported
// as a plain ORB object; a client can build an Interoperable Object Group
// Reference over them and let the ORB fail over transparently.
#include <gtest/gtest.h>

#include <memory>

#include "net/calibration.hpp"
#include "newtop/world.hpp"
#include "util/check.hpp"

namespace newtop {
namespace {

using namespace sim_literals;

constexpr std::uint32_t kWhoAmI = 1;
constexpr std::uint32_t kBoom = 2;

class TaggedServant : public GroupServant {
public:
    explicit TaggedServant(std::string tag) : tag_(std::move(tag)) {}

    Bytes handle(std::uint32_t method, const Bytes&) override {
        if (method == kBoom) throw ServantError("boom");
        return encode_to_bytes(tag_);
    }

private:
    std::string tag_;
};

struct IogrServiceFixture : ::testing::Test, World {
    IogrServiceFixture() : World(calibration::make_lan_topology(), 5) {
        for (int i = 0; i < 3; ++i) {
            add_nso().serve("svc", GroupConfig{},
                            std::make_shared<TaggedServant>("replica" + std::to_string(i)));
            run_for(300_ms);
        }
        client_orb = &add_orb();
    }

    Orb* client_orb{};
};

TEST_F(IogrServiceFixture, IogrCoversEveryReplica) {
    const Iogr iogr = nsos[0]->service_iogr("svc");
    EXPECT_EQ(iogr.members.size(), 3u);
}

TEST_F(IogrServiceFixture, DirectInvocationHitsThePrimaryReplica) {
    const Iogr iogr = nsos[0]->service_iogr("svc");
    std::string who;
    client_orb->invoke_group(iogr, kWhoAmI, Bytes{},
                             [&](ReplyStatus status, const Bytes& payload) {
                                 ASSERT_EQ(status, ReplyStatus::kOk);
                                 who = decode_from_bytes<std::string>(payload);
                             },
                             1_s);
    run_for(2_s);
    EXPECT_EQ(who, "replica0");
}

TEST_F(IogrServiceFixture, OrbFailsOverWhenPrimaryCrashes) {
    const Iogr iogr = nsos[0]->service_iogr("svc");
    net.crash(orbs[0]->node_id());
    std::string who;
    client_orb->invoke_group(iogr, kWhoAmI, Bytes{},
                             [&](ReplyStatus status, const Bytes& payload) {
                                 ASSERT_EQ(status, ReplyStatus::kOk);
                                 who = decode_from_bytes<std::string>(payload);
                             },
                             500_ms);
    run_for(5_s);
    EXPECT_EQ(who, "replica1");
}

TEST_F(IogrServiceFixture, ApplicationExceptionIsNotRetried) {
    // A servant exception is a definitive answer, not a failure to reach
    // the object: the ORB must report it rather than try another member.
    const Iogr iogr = nsos[0]->service_iogr("svc");
    ReplyStatus status{};
    client_orb->invoke_group(iogr, kBoom, Bytes{},
                             [&](ReplyStatus s, const Bytes&) { status = s; }, 500_ms);
    run_for(3_s);
    EXPECT_EQ(status, ReplyStatus::kException);
}

TEST_F(IogrServiceFixture, UnknownServiceRejected) {
    EXPECT_THROW((void)nsos[0]->service_iogr("nope"), PreconditionError);
}

}  // namespace
}  // namespace newtop
