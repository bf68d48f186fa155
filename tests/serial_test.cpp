#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gcs/messages.hpp"
#include "invocation/envelope.hpp"
#include "invocation/service.hpp"
#include "orb/ior.hpp"
#include "replication/active_replica.hpp"
#include "replication/passive_replica.hpp"
#include "serial/arena.hpp"
#include "serial/serial.hpp"
#include "util/rng.hpp"

namespace newtop {
namespace {

template <typename T>
T roundtrip(const T& value) {
    return decode_from_bytes<T>(encode_to_bytes(value));
}

TEST(Serial, PrimitiveRoundtrips) {
    EXPECT_EQ(roundtrip<std::uint8_t>(0xab), 0xab);
    EXPECT_EQ(roundtrip<std::uint16_t>(0x1234), 0x1234);
    EXPECT_EQ(roundtrip<std::uint32_t>(0xdeadbeef), 0xdeadbeefu);
    EXPECT_EQ(roundtrip<std::uint64_t>(0x0123456789abcdefULL), 0x0123456789abcdefULL);
    EXPECT_EQ(roundtrip<std::int32_t>(-42), -42);
    EXPECT_EQ(roundtrip<std::int64_t>(std::numeric_limits<std::int64_t>::min()),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(roundtrip<bool>(true), true);
    EXPECT_EQ(roundtrip<bool>(false), false);
    EXPECT_DOUBLE_EQ(roundtrip<double>(3.14159), 3.14159);
    EXPECT_DOUBLE_EQ(roundtrip<double>(-0.0), -0.0);
}

TEST(Serial, StringRoundtrips) {
    EXPECT_EQ(roundtrip<std::string>(""), "");
    EXPECT_EQ(roundtrip<std::string>("hello"), "hello");
    const std::string with_nul("a\0b", 3);
    EXPECT_EQ(roundtrip<std::string>(with_nul), with_nul);
}

TEST(Serial, BlobRoundtrips) {
    EXPECT_EQ(roundtrip<Bytes>(Bytes{}), Bytes{});
    EXPECT_EQ(roundtrip<Bytes>(Bytes{0, 255, 1, 2}), (Bytes{0, 255, 1, 2}));
}

TEST(Serial, VectorRoundtrips) {
    const std::vector<std::uint32_t> v{1, 2, 3, 0xffffffff};
    EXPECT_EQ(roundtrip(v), v);
    EXPECT_EQ(roundtrip(std::vector<std::string>{"a", "", "bc"}),
              (std::vector<std::string>{"a", "", "bc"}));
}

TEST(Serial, NestedVectorRoundtrips) {
    const std::vector<std::vector<std::uint8_t>> v{{1}, {}, {2, 3}};
    EXPECT_EQ(roundtrip(v), v);
}

TEST(Serial, OptionalRoundtrips) {
    EXPECT_EQ(roundtrip(std::optional<std::uint32_t>{}), std::nullopt);
    EXPECT_EQ(roundtrip(std::optional<std::uint32_t>{7}), std::optional<std::uint32_t>{7});
}

TEST(Serial, PairAndMapRoundtrips) {
    const std::pair<std::uint32_t, std::string> p{9, "nine"};
    EXPECT_EQ(roundtrip(p), p);
    const std::map<std::string, std::uint64_t> m{{"a", 1}, {"b", 2}};
    EXPECT_EQ(roundtrip(m), m);
}

TEST(Serial, StrongIdRoundtrips) {
    struct Tag {};
    using Id = StrongId<Tag, std::uint64_t>;
    EXPECT_EQ(roundtrip(Id(12345)), Id(12345));
}

TEST(Serial, LittleEndianLayout) {
    Encoder e;
    e.put_u32(0x01020304);
    const Bytes b = std::move(e).take();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b[0], 0x04);
    EXPECT_EQ(b[3], 0x01);
}

TEST(Serial, TruncatedInputThrows) {
    Encoder e;
    e.put_u64(1);
    Bytes b = std::move(e).take();
    b.pop_back();
    Decoder d(b);
    EXPECT_THROW(d.get_u64(), DecodeError);
}

TEST(Serial, TruncatedStringThrows) {
    Encoder e;
    e.put_u32(100);  // claims 100 bytes follow
    const Bytes b = std::move(e).take();
    Decoder d(b);
    EXPECT_THROW(d.get_string(), DecodeError);
}

TEST(Serial, HostileSequenceLengthThrows) {
    Encoder e;
    e.put_u32(0xffffffff);  // sequence "length"
    const Bytes b = std::move(e).take();
    Decoder d(b);
    std::vector<std::uint8_t> v;
    EXPECT_THROW(decode(d, v), DecodeError);
}

TEST(Serial, MinimumWireSizesFollowTheLayouts) {
    EXPECT_EQ(min_wire_size<std::uint32_t>(), 4u);
    EXPECT_EQ(min_wire_size<bool>(), 1u);
    EXPECT_EQ(min_wire_size<Bytes>(), 4u);
    EXPECT_EQ(min_wire_size<EndpointId>(), 8u);
    EXPECT_EQ(min_wire_size<MsgRef>(), 16u);
    EXPECT_EQ(min_wire_size<KnowledgeEntry>(), 32u);
    EXPECT_EQ((min_wire_size<std::pair<EndpointId, Seqno>>()), 16u);
    // 65 bytes of fixed-width fields plus six 4-byte lengths (the payload
    // blob and five sequences), each present even when empty.
    EXPECT_EQ(min_wire_size<DataMsg>(), 89u);
    EXPECT_EQ(encoded_size(DataMsg{}), 89u);
    // A variant: the tag plus its smallest alternative (JoinReq / LeaveReq).
    EXPECT_EQ(min_wire_size<GcsMessage>(), 17u);
}

/// A frame holding a sequence count and then `body_bytes` zero bytes.
Bytes counted_frame(std::uint32_t count, std::size_t body_bytes) {
    Encoder e;
    e.put_u32(count);
    const Bytes zeros(body_bytes, 0);
    e.put_bytes(zeros.data(), zeros.size());
    return std::move(e).take();
}

TEST(Serial, SequenceCountIsBoundedByElementSize) {
    // Two 32-byte KnowledgeEntrys' worth of input: a claim of three fails
    // the length check itself, before the decoder reserves anything.
    const Bytes fits = counted_frame(2, 64);
    const auto entries = decode_from_bytes<std::vector<KnowledgeEntry>>(fits);
    EXPECT_EQ(entries.size(), 2u);
    const Bytes one_too_many = counted_frame(3, 64);
    try {
        (void)decode_from_bytes<std::vector<KnowledgeEntry>>(one_too_many);
        FAIL() << "a count the input cannot hold was accepted";
    } catch (const DecodeError& err) {
        EXPECT_STREQ(err.what(), "sequence length exceeds input");
    }
    // The same bound for DataMsg (89 bytes at least, 216 in memory).
    const Bytes data_frame = counted_frame(2, 2 * 89 - 1);
    try {
        (void)decode_from_bytes<std::vector<DataMsg>>(data_frame);
        FAIL() << "a count the input cannot hold was accepted";
    } catch (const DecodeError& err) {
        EXPECT_STREQ(err.what(), "sequence length exceeds input");
    }
}

TEST(Serial, MapCountIsBoundedByEntrySize) {
    // A map<uint32, uint64> entry takes 12 bytes.
    const auto map = decode_from_bytes<std::map<std::uint32_t, std::uint64_t>>(
        counted_frame(1, 12));
    EXPECT_EQ(map.size(), 1u);
    try {
        (void)decode_from_bytes<std::map<std::uint32_t, std::uint64_t>>(counted_frame(2, 23));
        FAIL() << "a count the input cannot hold was accepted";
    } catch (const DecodeError& err) {
        EXPECT_STREQ(err.what(), "map length exceeds input");
    }
}

TEST(Serial, AlternativeEncodesLikeTheVariantHoldingIt) {
    DataMsg data;
    data.seq = 7;
    data.knowledge.push_back(KnowledgeEntry{GroupId(1), 2, EndpointId(3), 4});
    EXPECT_EQ(encode_gcs_message(data), encode_gcs_message(GcsMessage{data}));
    const NackMsg nack{GroupId(1), 2, EndpointId(3), {4, 5}};
    EXPECT_EQ(encode_gcs_message(nack), encode_gcs_message(GcsMessage{nack}));
    const InstallMsg install{};
    EXPECT_EQ(encode_gcs_message(install), encode_gcs_message(GcsMessage{install}));
}

TEST(Serial, InvalidBoolThrows) {
    const Bytes b{2};
    Decoder d(b);
    EXPECT_THROW(d.get_bool(), DecodeError);
}

TEST(Serial, TrailingBytesDetected) {
    Encoder e;
    e.put_u32(1);
    e.put_u8(0);  // extra byte
    const Bytes b = std::move(e).take();
    EXPECT_THROW(decode_from_bytes<std::uint32_t>(b), DecodeError);
}

TEST(Serial, ExhaustedAndRemaining) {
    Encoder e;
    e.put_u16(7);
    const Bytes b = std::move(e).take();
    Decoder d(b);
    EXPECT_FALSE(d.exhausted());
    EXPECT_EQ(d.remaining(), 2u);
    d.get_u16();
    EXPECT_TRUE(d.exhausted());
}

TEST(Serial, EmptyBufferDecodeThrows) {
    const Bytes b;
    Decoder d(b);
    EXPECT_THROW(d.get_u8(), DecodeError);
}

// Property test: random mixed-field records always round-trip.
TEST(Serial, RandomRecordRoundtripProperty) {
    Rng rng(0xfeed);
    for (int iter = 0; iter < 200; ++iter) {
        Encoder e;
        std::vector<std::uint64_t> u64s;
        std::vector<std::string> strings;
        const int fields = static_cast<int>(rng.next_in(0, 10));
        for (int f = 0; f < fields; ++f) u64s.push_back(rng.next_u64());
        const int nstr = static_cast<int>(rng.next_in(0, 5));
        for (int f = 0; f < nstr; ++f) {
            std::string s;
            const auto len = rng.next_in(0, 64);
            for (std::uint64_t i = 0; i < len; ++i) {
                s.push_back(static_cast<char>(rng.next_in(0, 255)));
            }
            strings.push_back(std::move(s));
        }
        encode(e, u64s);
        encode(e, strings);
        const Bytes b = std::move(e).take();

        Decoder d(b);
        std::vector<std::uint64_t> u64s_out;
        std::vector<std::string> strings_out;
        decode(d, u64s_out);
        decode(d, strings_out);
        EXPECT_EQ(u64s_out, u64s);
        EXPECT_EQ(strings_out, strings);
        EXPECT_TRUE(d.exhausted());
    }
}

// -- invocation envelope round-trips -----------------------------------------
// Property tests over every InvocationEnvelope variant: the envelopes have
// no operator==, so round-trip fidelity is asserted as encode/decode/encode
// byte stability (a lossy decode cannot re-encode to the same bytes).

Bytes random_payload(Rng& rng, std::uint64_t max_len) {
    Bytes out;
    const auto len = rng.next_in(0, max_len);
    out.reserve(len);
    for (std::uint64_t i = 0; i < len; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.next_in(0, 255)));
    }
    return out;
}

CallId random_call(Rng& rng) {
    return CallId{rng.next_u64(), rng.next_u64(), rng.next_bool(0.3)};
}

obs::SpanContext random_span(Rng& rng) {
    return obs::SpanContext{rng.next_u64(), rng.next_u64()};
}

InvocationMode random_mode(Rng& rng) {
    return static_cast<InvocationMode>(rng.next_in(0, 3));
}

void expect_stable_roundtrip(const InvocationEnvelope& env, int iter) {
    const Bytes once = encode_envelope(env);
    const InvocationEnvelope decoded = decode_envelope(once);
    EXPECT_EQ(decoded.index(), env.index()) << "variant changed, iter " << iter;
    const Bytes twice = encode_envelope(decoded);
    EXPECT_EQ(once, twice) << "lossy round-trip, iter " << iter;
}

TEST(Serial, RequestEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe1);
    for (int iter = 0; iter < 200; ++iter) {
        RequestEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.mode = random_mode(rng);
        env.flags = static_cast<std::uint8_t>(rng.next_in(0, 3));
        env.server_group = GroupId(static_cast<GroupId::rep_type>(rng.next_in(0, 1000)));
        env.bind = rng.next_bool(0.5) ? BindMode::kOpen : BindMode::kClosed;
        env.method = static_cast<std::uint32_t>(rng.next_u64());
        env.args = random_payload(rng, 512);
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, ForwardEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe2);
    for (int iter = 0; iter < 200; ++iter) {
        ForwardEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.mode = random_mode(rng);
        env.flags = static_cast<std::uint8_t>(rng.next_in(0, 3));
        env.manager = EndpointId(static_cast<EndpointId::rep_type>(rng.next_in(0, 1000)));
        env.method = static_cast<std::uint32_t>(rng.next_u64());
        env.args = random_payload(rng, 512);
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, ReplyEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe3);
    for (int iter = 0; iter < 200; ++iter) {
        ReplyEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.replier = EndpointId(static_cast<EndpointId::rep_type>(rng.next_in(0, 1000)));
        env.ok = rng.next_bool(0.8);
        env.value = random_payload(rng, 512);
        expect_stable_roundtrip(env, iter);
    }
}

TEST(Serial, AggregateEnvelopeRoundtripsUnderRandomPayloads) {
    Rng rng(0xe4);
    for (int iter = 0; iter < 200; ++iter) {
        AggregateEnv env;
        env.call = random_call(rng);
        env.span = random_span(rng);
        env.complete = rng.next_bool(0.7);
        const auto replies = rng.next_in(0, 6);
        for (std::uint64_t r = 0; r < replies; ++r) {
            ReplyEntry entry;
            entry.replier = EndpointId(static_cast<EndpointId::rep_type>(rng.next_in(0, 1000)));
            entry.ok = rng.next_bool(0.9);
            entry.value = random_payload(rng, 128);
            env.replies.push_back(std::move(entry));
        }
        expect_stable_roundtrip(env, iter);
    }
}

/// Decoding `input` as T either yields a value or throws DecodeError.
template <typename T>
void decode_or_reject(const Bytes& input) {
    try {
        (void)decode_from_bytes<T>(input);
    } catch (const DecodeError&) {
        // expected for most inputs
    }
}

/// The ORB-argument payloads: garbage never crashes their decoders, and a
/// valid payload followed by one stray byte is rejected.
void check_payload_decoders(const Bytes& garbage) {
    decode_or_reject<JoinCsRequest>(garbage);
    decode_or_reject<SyncMarker>(garbage);
    decode_or_reject<Checkpoint>(garbage);
    const std::uint8_t stray = garbage.empty() ? 0xff : garbage.front();
    Bytes join_cs = encode_to_bytes(JoinCsRequest{"cs:1", GroupId(2), EndpointId(3)});
    join_cs.push_back(stray);
    EXPECT_THROW(decode_from_bytes<JoinCsRequest>(join_cs), DecodeError);
    Bytes marker = encode_to_bytes(SyncMarker{EndpointId(1), {EndpointId(2)}});
    marker.push_back(stray);
    EXPECT_THROW(decode_from_bytes<SyncMarker>(marker), DecodeError);
    Bytes checkpoint = encode_to_bytes(Checkpoint{StreamPos{1, 2}, garbage});
    checkpoint.push_back(stray);
    EXPECT_THROW(decode_from_bytes<Checkpoint>(checkpoint), DecodeError);
}

TEST(Serial, EnvelopeGarbageNeverCrashes) {
    Rng rng(0xe5);
    for (int iter = 0; iter < 500; ++iter) {
        Bytes garbage = random_payload(rng, 96);
        decode_or_reject<InvocationEnvelope>(garbage);
        check_payload_decoders(garbage);
    }
}

// Property test: decoding random garbage either throws DecodeError or
// produces a value, but never crashes or reads out of bounds.
TEST(Serial, RandomGarbageNeverCrashes) {
    Rng rng(0xdead);
    for (int iter = 0; iter < 500; ++iter) {
        Bytes garbage;
        const auto len = rng.next_in(0, 64);
        for (std::uint64_t i = 0; i < len; ++i) {
            garbage.push_back(static_cast<std::uint8_t>(rng.next_in(0, 255)));
        }
        Decoder d(garbage);
        try {
            std::vector<std::string> v;
            decode(d, v);
        } catch (const DecodeError&) {
            // expected for most inputs
        }
        check_payload_decoders(garbage);
    }
}

// -- golden wire bytes -----------------------------------------------------------
// Every simulated latency follows from message sizes, so each wire layout is
// pinned byte for byte: one fully populated instance per type, encoded and
// compared with hex captured once.  Round-trip tests cannot see a layout
// change that encode and decode both make; these can.  The constants change
// only with an intended wire-format change.

std::string hex(const Bytes& bytes) {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    for (const std::uint8_t b : bytes) {
        out += kDigits[b >> 4];
        out += kDigits[b & 0xf];
    }
    return out;
}

DataMsg golden_data() {
    DataMsg m;
    m.group = GroupId(1);
    m.epoch = 2;
    m.sender = EndpointId(3);
    m.seq = 4;
    m.ts = 5;
    m.kind = DataKind::kConfig;
    m.knowledge = {KnowledgeEntry{GroupId(6), 7, EndpointId(8), 9}};
    m.payload = {0xa1, 0xa2};
    m.batch = {{0xb1}, {0xb2, 0xb3}};
    m.received_counts = {{EndpointId(3), 10}};
    m.causal_vc = {{EndpointId(11), 12}};
    m.sent_at = 13;
    m.span = obs::SpanContext{14, 15};
    m.batch_spans = {obs::SpanContext{16, 17}, obs::SpanContext{18, 19}};
    return m;
}

GroupConfig golden_config() {
    GroupConfig c;
    c.order = OrderMode::kCausal;
    c.liveness = LivenessMode::kLively;
    c.time_silence = 21;
    c.ack_delay = 22;
    c.suspicion_timeout = 23;
    c.view_change_timeout = 24;
    c.stability_period = 25;
    c.order_window = 26;
    c.order_max_batch = 27;
    c.adaptive_asym_threshold = 28;
    c.phi_threshold_milli = 29;
    c.phi_floor = 30;
    c.phi_ceiling = 31;
    return c;
}

const CallId kGoldenCall{41, 42, true};
const obs::SpanContext kGoldenSpan{43, 44};
const View kGoldenView{GroupId(1), 2, {EndpointId(3), EndpointId(5)}};
const Ior kGoldenIor{NodeId(7), ObjectKey(8), "Svc"};

struct GoldenCase {
    const char* name;
    Bytes wire;
    const char* hex;
};

void expect_golden(const std::vector<GoldenCase>& cases) {
    for (const GoldenCase& c : cases) EXPECT_EQ(hex(c.wire), c.hex) << c.name;
}

TEST(Serial, GoldenGcsMessageBytes) {
    const std::vector<MsgRef> refs{MsgRef{EndpointId(3), 4}, MsgRef{EndpointId(5), 6}};
    const std::vector<std::pair<std::uint64_t, MsgRef>> orders{{9, MsgRef{EndpointId(3), 4}}};
    DataMsg cut_msg;
    cut_msg.seq = 1;
    expect_golden({
        {"DataMsg", encode_gcs_message(golden_data()),
         "0101000000000000000200000000000000030000000000000004000000000000"
         "0005000000000000000301000000060000000000000007000000000000000800"
         "000000000000090000000000000002000000a1a20200000001000000b1020000"
         "00b2b30100000003000000000000000a00000000000000010000000b00000000"
         "0000000c000000000000000d000000000000000e000000000000000f00000000"
         "0000000200000010000000000000001100000000000000120000000000000013"
         "00000000000000"},
        {"NackMsg", encode_gcs_message(NackMsg{GroupId(1), 2, EndpointId(3), {4, 5}}),
         "0201000000000000000200000000000000030000000000000002000000040000"
         "00000000000500000000000000"},
        {"OrderMsg", encode_gcs_message(OrderMsg{GroupId(1), 2, 7, refs}),
         "0301000000000000000200000000000000070000000000000002000000030000"
         "0000000000040000000000000005000000000000000600000000000000"},
        {"JoinReq", encode_gcs_message(JoinReq{GroupId(1), EndpointId(2)}),
         "0401000000000000000200000000000000"},
        {"LeaveReq", encode_gcs_message(LeaveReq{GroupId(1), EndpointId(2)}),
         "0501000000000000000200000000000000"},
        {"SuspectMsg",
         encode_gcs_message(SuspectMsg{GroupId(1), 2, EndpointId(3), {EndpointId(4)}}),
         "0601000000000000000200000000000000030000000000000001000000040000"
         "0000000000"},
        {"ProposeMsg",
         encode_gcs_message(
             ProposeMsg{GroupId(1), 2, 3, EndpointId(4), {EndpointId(4), EndpointId(5)}}),
         "0701000000000000000200000000000000030000000000000004000000000000"
         "000200000004000000000000000500000000000000"},
        {"FlushMsg",
         encode_gcs_message(FlushMsg{GroupId(1), 2, EndpointId(3), EndpointId(4), {cut_msg},
                                     orders}),
         "0801000000000000000200000000000000030000000000000004000000000000"
         "0001000000000000000000000000000000000000000000000000000000010000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000000000000000100"
         "0000090000000000000003000000000000000400000000000000"},
        {"InstallMsg",
         encode_gcs_message(InstallMsg{GroupId(1), kGoldenView, EndpointId(3), {cut_msg},
                                       orders, golden_config(), 4, 5}),
         "0901000000000000000100000000000000020000000000000002000000030000"
         "0000000000050000000000000003000000000000000100000000000000000000"
         "0000000000000000000000000000000000010000000000000000000000000000"
         "0000000000000000000000000000000000000000000000000000000000000000"
         "0000000000000000000000000000000000000100000009000000000000000300"
         "0000000000000400000000000000020015000000000000001600000000000000"
         "1700000000000000180000000000000019000000000000001a00000000000000"
         "1b000000000000001c000000000000001d000000000000001e00000000000000"
         "1f0000000000000004000000000000000500000000000000"},
    });
}

TEST(Serial, GoldenEnvelopeBytes) {
    expect_golden({
        {"RequestEnv",
         encode_envelope(RequestEnv{kGoldenCall, kGoldenSpan, InvocationMode::kWaitAll,
                                    kFlagNoReply, GroupId(1), BindMode::kClosed, 2,
                                    Bytes{0xc1, 0xc2}, 3}),
         "0129000000000000002a00000000000000012b000000000000002c0000000000"
         "000003020100000000000000000200000002000000c1c20300000000000000"},
        {"ForwardEnv",
         encode_envelope(ForwardEnv{kGoldenCall, kGoldenSpan, InvocationMode::kWaitMajority,
                                    kFlagAsyncForwarding, EndpointId(1), 2, Bytes{0xc1}, 3}),
         "0229000000000000002a00000000000000012b000000000000002c0000000000"
         "0000020101000000000000000200000001000000c10300000000000000"},
        {"ReplyEnv",
         encode_envelope(ReplyEnv{kGoldenCall, kGoldenSpan, EndpointId(1), false, Bytes{0xd1}}),
         "0329000000000000002a00000000000000012b000000000000002c0000000000"
         "000001000000000000000001000000d1"},
        {"AggregateEnv",
         encode_envelope(AggregateEnv{kGoldenCall, kGoldenSpan, false,
                                      {ReplyEntry{EndpointId(1), true, Bytes{0xe1}},
                                       ReplyEntry{EndpointId(2), false, Bytes{}}}}),
         "0429000000000000002a00000000000000012b000000000000002c0000000000"
         "0000000200000001000000000000000101000000e10200000000000000000000"
         "0000"},
    });
}

TEST(Serial, GoldenStandaloneStructBytes) {
    expect_golden({
        {"ConfigChangeMsg",
         encode_to_bytes(ConfigChangeMsg{GroupId(1), golden_config(), 2}),
         "0100000000000000020015000000000000001600000000000000170000000000"
         "0000180000000000000019000000000000001a000000000000001b0000000000"
         "00001c000000000000001d000000000000001e000000000000001f0000000000"
         "00000200000000000000"},
        {"View", encode_to_bytes(kGoldenView),
         "0100000000000000020000000000000002000000030000000000000005000000"
         "00000000"},
        {"Ior", encode_to_bytes(kGoldenIor),
         "07000000080000000000000003000000537663"},
        {"Iogr",
         encode_to_bytes(Iogr{{kGoldenIor, Ior{NodeId(9), ObjectKey(10), std::string{}}}, 1}),
         "0200000007000000080000000000000003000000537663090000000a00000000"
         "0000000000000001000000"},
    });
}

// The payloads that ride inside ORB requests and DATA messages.
TEST(Serial, GoldenPayloadBytes) {
    expect_golden({
        {"join-cs request", encode_to_bytes(JoinCsRequest{"cs:3", GroupId(1), EndpointId(2)}),
         "0400000063733a3301000000000000000200000000000000"},
        {"order payload",
         encode_to_bytes(OrderRecord{7, {MsgRef{EndpointId(3), 4}, MsgRef{EndpointId(5), 6}}}),
         "0700000000000000020000000300000000000000040000000000000005000000"
         "000000000600000000000000"},
        {"sync marker", encode_to_bytes(SyncMarker{EndpointId(1), {EndpointId(2), EndpointId(3)}}),
         "01000000000000000200000002000000000000000300000000000000"},
        {"checkpoint", encode_to_bytes(Checkpoint{StreamPos{4, 5}, Bytes{0xf1, 0xf2}}),
         "0400000000000000050000000000000002000000f1f2"},
    });
}

// -- counting / arena encode path ------------------------------------------------

// Property: the counting encoder predicts the real encoding's size exactly,
// for arbitrary nested values.
TEST(Serial, CountingEncoderMatchesRealSize) {
    Rng rng(0xc0);
    for (int iter = 0; iter < 100; ++iter) {
        std::map<std::string, std::vector<Bytes>> value;
        const auto entries = rng.next_in(0, 5);
        for (std::uint64_t i = 0; i < entries; ++i) {
            std::vector<Bytes> blobs;
            const auto n = rng.next_in(0, 4);
            for (std::uint64_t j = 0; j < n; ++j) blobs.push_back(random_payload(rng, 64));
            value["key" + std::to_string(i)] = std::move(blobs);
        }
        Encoder counter = Encoder::counter();
        encode(counter, value);
        EXPECT_EQ(counter.size(), encode_to_bytes(value).size());
    }
}

// Regression: put_le used to grow the buffer one push_back at a time, and
// blob encodes never pre-sized.  Encoding a 64 KiB payload must perform
// O(1) allocations: after the exact reserve, the buffer never reallocates.
TEST(Serial, LargePayloadEncodesWithoutReallocation) {
    const Bytes payload(64 * 1024, 0x5a);
    Encoder e;
    e.reserve(encoded_size(payload));
    const std::uint8_t* before = e.data();
    const std::size_t reserved = e.capacity();
    e.put_blob(payload);
    EXPECT_EQ(e.data(), before);          // storage never moved
    EXPECT_EQ(e.capacity(), reserved);    // ... nor grew
    EXPECT_EQ(e.size(), encoded_size(payload));
    // encode_to_bytes pre-sizes the same way: zero growth slack.
    const Bytes wire = encode_to_bytes(payload);
    EXPECT_EQ(wire.capacity(), wire.size());
}

TEST(Serial, EncoderAdoptsAndArenaRecyclesStorage) {
    EncodeArena arena;
    Bytes retired;
    retired.reserve(4096);
    const std::uint8_t* storage = retired.data();
    arena.recycle(std::move(retired));
    EXPECT_EQ(arena.pooled(), 1u);

    // acquire() hands back the pooled storage, cleared.
    Bytes buf = arena.acquire(1024);
    EXPECT_EQ(arena.pooled(), 0u);
    EXPECT_EQ(buf.data(), storage);
    EXPECT_TRUE(buf.empty());
    EXPECT_GE(buf.capacity(), 4096u);

    // An adopting encoder writes into that same storage.
    Encoder e{std::move(buf)};
    e.put_u64(0x1122334455667788ULL);
    EXPECT_EQ(e.data(), storage);
    Bytes wire = std::move(e).take();
    EXPECT_EQ(wire.data(), storage);
    EXPECT_EQ(decode_from_bytes<std::uint64_t>(wire), 0x1122334455667788ULL);

    // Round and round: the wire buffer retires into the next encode.
    arena.recycle(std::move(wire));
    EXPECT_EQ(arena.acquire(16).data(), storage);
}

TEST(Serial, ArenaDropsOversizedAndSurplusBuffers) {
    EncodeArena arena;
    Bytes huge;
    huge.reserve((std::size_t{1} << 20) + 1);
    arena.recycle(std::move(huge));
    EXPECT_EQ(arena.pooled(), 0u);  // over the per-buffer cap: freed
    for (int i = 0; i < 40; ++i) arena.recycle(Bytes(8, 0));
    EXPECT_LE(arena.pooled(), 16u);  // pool count is bounded
}

TEST(Serial, BlobViewIsZeroCopy) {
    Encoder e;
    e.put_u32(7);
    e.put_blob(Bytes{1, 2, 3, 4});
    const Bytes wire = std::move(e).take();
    Decoder d(wire);
    EXPECT_EQ(d.get_u32(), 7u);
    const BytesView view = d.get_blob_view();
    ASSERT_EQ(view.size(), 4u);
    EXPECT_GE(view.data(), wire.data());
    EXPECT_LE(view.data() + view.size(), wire.data() + wire.size());
    EXPECT_EQ(view[3], 4u);
    EXPECT_TRUE(d.exhausted());
}

TEST(Serial, TruncatedBlobViewThrows) {
    Encoder e;
    e.put_blob(Bytes(16, 0xff));
    Bytes wire = std::move(e).take();
    wire.resize(wire.size() - 1);
    Decoder d(wire);
    EXPECT_THROW(d.get_blob_view(), DecodeError);
}

}  // namespace
}  // namespace newtop
