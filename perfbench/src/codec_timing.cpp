#include "codec_timing.hpp"

#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using namespace newtop;

namespace {

constexpr int kLoops = 7;
constexpr int kCallsPerLoop = 2000;

/// Median over kLoops of the mean host ns per call of `fn`.
template <typename Fn>
double time_per_call(Tracer* tracer, const char* span, Fn&& fn) {
    std::vector<double> per_call;
    for (int loop = 0; loop < kLoops; ++loop) {
        SpanGuard guard(tracer, span, static_cast<std::uint64_t>(loop));
        const std::int64_t start = host_ns();
        for (int i = 0; i < kCallsPerLoop; ++i) fn();
        per_call.push_back(static_cast<double>(host_ns() - start) / kCallsPerLoop);
    }
    return median(per_call);
}

}  // namespace

DataMsg data_msg_shape(std::size_t payload_bytes, std::size_t payloads) {
    DataMsg msg;
    msg.group = GroupId(7);
    msg.epoch = 1;
    msg.sender = EndpointId(3);
    msg.seq = 12345;
    msg.ts = 67890;
    msg.kind = DataKind::kApplication;
    msg.payload.assign(payload_bytes, 0xb7);
    msg.span = obs::SpanContext{0x1234, 0x5678};
    msg.sent_at = 1'000'000;
    for (std::size_t i = 1; i < payloads; ++i) {
        msg.batch.emplace_back(payload_bytes, static_cast<std::uint8_t>(i));
        msg.batch_spans.push_back(obs::SpanContext{0x1234 + i, 0x5678 + i});
    }
    return msg;
}

RequestEnv request_shape(std::size_t args_bytes, InvocationMode mode) {
    RequestEnv env;
    env.call = CallId{42, 1000, false};
    env.span = obs::SpanContext{0x9abc, 0xdef0};
    env.mode = mode;
    env.server_group = GroupId(9);
    env.bind = BindMode::kOpen;
    env.method = 1;
    env.args.assign(args_bytes, 0x5a);
    env.deadline = 5'000'000;
    return env;
}

void time_codecs(const DataMsg& data, const RequestEnv& request, Tracer* tracer,
                 std::map<std::string, double>& layer) {
    std::size_t sink = 0;  // keeps the loops observable
    const GcsMessage gcs = data;
    const Bytes gcs_wire = encode_gcs_message(gcs);
    layer["serial.gcs_encode_ns"] = time_per_call(tracer, "codec.gcs_encode", [&] {
        sink += encode_gcs_message(gcs).size();
    });
    layer["serial.gcs_decode_ns"] = time_per_call(tracer, "codec.gcs_decode", [&] {
        sink += std::get<DataMsg>(decode_gcs_message(gcs_wire)).batch.size();
    });
    const InvocationEnvelope env = request;
    const Bytes env_wire = encode_envelope(env);
    layer["serial.env_encode_ns"] = time_per_call(tracer, "codec.env_encode", [&] {
        sink += encode_envelope(env).size();
    });
    layer["serial.env_decode_ns"] = time_per_call(tracer, "codec.env_decode", [&] {
        sink += std::get<RequestEnv>(decode_envelope(env_wire)).args.size();
    });
    if (sink == 0) throw std::logic_error("codec loops produced nothing");
}

}  // namespace perfbench
