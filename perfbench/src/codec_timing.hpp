// Host cost of the wire codecs on a workload's own message shapes.
//
// The benchmark calls encode_gcs_message/decode_gcs_message and
// encode_envelope/decode_envelope directly, in timed loops, on messages
// shaped like the ones the workload sends (payload size, batch length,
// spans).  Each figure is the median over several loops of the mean
// nanoseconds per call.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "gcs/messages.hpp"
#include "host_trace.hpp"
#include "invocation/envelope.hpp"

namespace perfbench {

/// An application DataMsg carrying `payloads` payloads of `payload_bytes`
/// each (one in `payload`, the rest in `batch`), all with spans.
newtop::DataMsg data_msg_shape(std::size_t payload_bytes, std::size_t payloads);

/// A two-way request envelope with `args_bytes` of arguments.
newtop::RequestEnv request_shape(std::size_t args_bytes, newtop::InvocationMode mode);

/// Time both codecs and store serial.{gcs,env}_{encode,decode}_ns.
void time_codecs(const newtop::DataMsg& data, const newtop::RequestEnv& request, Tracer* tracer,
                 std::map<std::string, double>& layer);

}  // namespace perfbench
