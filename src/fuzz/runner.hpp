// Scenario execution: one fuzz scenario -> one fresh simulated world ->
// one checked trace.
//
// run_scenario() builds the scenario's topology, starts every server
// replica, binds every client, runs the closed-loop workloads while the
// fault plan fires, then drains until all calls have terminated.  The
// whole run is recorded through a RingTraceSink and swept by the
// ProtocolOracle plus the campaign's own liveness check: every call a
// surviving client issued must reach a terminal event (completed, failed
// or timed out) — a call that silently hangs is a protocol bug even when
// ordering and virtual synchrony hold.
//
// Every run owns a fresh World (src/newtop/world.hpp: scheduler, network
// and with it a fresh MetricsRegistry, directory) and trace sink, so
// consecutive runs cannot bleed state into each other's verdicts — the
// property the cross-run regression test in tests/fuzz_test.cpp pins down.
#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "fuzz/scenario.hpp"
#include "obs/oracle.hpp"
#include "obs/trace.hpp"

namespace newtop::fuzz {

/// Test hook: corrupt the recorded trace before the checkers run (used to
/// prove the campaign catches — and shrinks — injected protocol bugs
/// without patching the protocol itself).
using TraceMutator = std::function<void(std::vector<obs::TraceEvent>&)>;

struct RunOptions {
    /// Ring capacity; a wrapped ring would make the oracle's view partial,
    /// so an overflow is reported as a failure instead of checked anyway.
    std::size_t trace_capacity{std::size_t{1} << 19};
    /// Keep the full (post-mutation) event stream in the result — needed by
    /// the replay-determinism test; off by default to keep campaigns lean.
    bool keep_trace{false};
    TraceMutator mutator;
};

struct RunResult {
    std::uint64_t seed{0};
    std::vector<obs::Violation> violations;
    std::vector<std::string> liveness_failures;
    std::uint64_t trace_events{0};
    std::uint64_t trace_dropped{0};
    std::vector<obs::TraceEvent> trace;
    /// what() of an InvariantError the run threw; the run stopped there,
    /// so the other verdicts and the trace stay empty.
    std::string invariant;

    [[nodiscard]] bool ok() const {
        return invariant.empty() && violations.empty() && liveness_failures.empty() &&
               trace_dropped == 0;
    }
    /// One line per problem (invariant, oracle violations, liveness hangs,
    /// overflow).
    [[nodiscard]] std::string report() const;
};

/// The campaign's liveness invariant over a recorded stream: every
/// (trace, client) that queued or sent a request must later complete,
/// fail or time out.  `exempt` lists endpoint ids whose process the fault
/// plan crashed — their calls are allowed to vanish.
[[nodiscard]] std::vector<std::string> check_call_liveness(
    const std::vector<obs::TraceEvent>& events, const std::set<std::uint64_t>& exempt);

/// Execute `scenario` in a fresh world and check its trace.  Deterministic:
/// same scenario (and mutator), byte-identical trace and verdict.  An
/// InvariantError thrown by the run (or the mutator) becomes a failing
/// result instead of escaping.
[[nodiscard]] RunResult run_scenario(const Scenario& scenario, const RunOptions& options = {});

}  // namespace newtop::fuzz
