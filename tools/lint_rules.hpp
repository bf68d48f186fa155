// Rule tables for newtop_lint (see lint_scanner.hpp for the engine).
//
// This header *is* the determinism and layering contract of the repo, in
// machine-checked form.  The simulator's guarantee — same seed, same trace
// stream, bit for bit — only holds while no code on a simulation path reads
// wall clocks, consults process-global randomness, or lets hash-table /
// pointer layout decide an order that protocol or trace code can observe.
// The chaos campaign (tools/newtop_fuzz) *samples* that guarantee; these
// tables *enforce* it statically on every build.
//
// Suppression syntax: a comment of the form
//     newtop-lint: allow(getenv): replay knob read once before simulation starts
// (rule id in parentheses, mandatory reason after the colon) on the
// offending line, or alone on the line directly above it.
#pragma once

#include <array>
#include <string_view>

namespace newtop::lint {

// ---------------------------------------------------------------------------
// Rule identifiers.
// ---------------------------------------------------------------------------
inline constexpr std::string_view kRuleWallClock = "wall-clock";
inline constexpr std::string_view kRuleRawRandom = "raw-random";
inline constexpr std::string_view kRuleGetenv = "getenv";
inline constexpr std::string_view kRuleUnordered = "unordered-container";
inline constexpr std::string_view kRulePointerKey = "pointer-key";
inline constexpr std::string_view kRuleFloatSim = "float-sim";
inline constexpr std::string_view kRuleLayerDag = "layer-dag";
inline constexpr std::string_view kRuleMetricName = "metric-name";
inline constexpr std::string_view kRuleBadSuppression = "bad-suppression";
inline constexpr std::string_view kRuleCodecSymmetry = "codec-symmetry";
inline constexpr std::string_view kRuleStructCoverage = "struct-coverage";
inline constexpr std::string_view kRuleHotAlloc = "hot-path-alloc";

inline constexpr std::array<std::string_view, 12> kAllRules = {
    kRuleWallClock,     kRuleRawRandom,     kRuleGetenv,   kRuleUnordered,
    kRulePointerKey,    kRuleFloatSim,      kRuleLayerDag, kRuleMetricName,
    kRuleBadSuppression, kRuleCodecSymmetry, kRuleStructCoverage, kRuleHotAlloc,
};

// ---------------------------------------------------------------------------
// Banned identifier sets.
// ---------------------------------------------------------------------------

/// Wall-clock and real-time sources.  Simulated time comes from
/// Scheduler::now() (util/time.hpp vocabulary) and nowhere else, so these
/// are banned in *all* scanned code, including tests and benches: a bench
/// that timed itself with the host clock would print unreproducible numbers.
inline constexpr std::array<std::string_view, 10> kWallClockIds = {
    "system_clock",  "steady_clock", "high_resolution_clock", "gettimeofday",
    "clock_gettime", "timespec_get", "localtime",             "gmtime",
    "strftime",      "ftime",
};

/// `time` / `clock` are too short to ban as bare identifiers (methods and
/// members legitimately use those names); they are flagged only as direct
/// calls — identifier immediately followed by `(` and not reached through
/// `.` / `->` / a non-std `::` qualifier.
inline constexpr std::array<std::string_view, 2> kWallClockCallIds = {"time", "clock"};

/// Process-global / non-seeded randomness.  All randomness flows through
/// util/rng.hpp (xoshiro256** seeded per scenario); src/util/ itself is
/// sanctioned so the engine can be implemented or swapped there.
inline constexpr std::array<std::string_view, 13> kRawRandomIds = {
    "rand",         "srand",         "rand_r",       "drand48",     "lrand48",
    "random_device", "mt19937",      "mt19937_64",   "minstd_rand", "minstd_rand0",
    "default_random_engine", "random_shuffle", "ranlux48",
};

/// Environment access.  The environment is host state: a scenario whose
/// behaviour depends on it is not reproducible from its seed.  Sanctioned
/// in src/util/ (the log-level knob); entry points that read replay /
/// export knobs *before* any simulation starts carry explicit suppressions.
inline constexpr std::array<std::string_view, 5> kEnvIds = {
    "getenv", "secure_getenv", "setenv", "putenv", "unsetenv",
};

/// Hash containers whose iteration order is implementation/layout defined.
inline constexpr std::array<std::string_view, 4> kUnorderedIds = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};

/// Ordered associative containers checked for pointer-typed keys (pointer
/// comparison order is allocation order — nondeterministic across runs).
inline constexpr std::array<std::string_view, 4> kOrderedAssocIds = {
    "map", "set", "multimap", "multiset",
};

// ---------------------------------------------------------------------------
// Path scoping.
// ---------------------------------------------------------------------------

/// Directories whose contents are protocol- or trace-visible: any container
/// iteration order here can leak into delivery order, view composition or
/// the trace stream.  unordered-container / pointer-key apply under these
/// prefixes.  src/util/ is exempt (it may host a deterministic-map wrapper
/// one day); src/fuzz/ is included because the scenario generator's output
/// must also be a pure function of its seed.
inline constexpr std::array<std::string_view, 9> kProtocolVisibleDirs = {
    "src/sim/", "src/net/",    "src/orb/",        "src/gcs/",  "src/invocation/",
    "src/obs/", "src/newtop/", "src/replication/", "src/fuzz/",
};

/// raw-random and getenv are sanctioned under these prefixes.
inline constexpr std::array<std::string_view, 1> kRandomSanctionedDirs = {"src/util/"};
inline constexpr std::array<std::string_view, 1> kEnvSanctionedDirs = {"src/util/"};

/// Metric / phase name prefixes that must come from the central table
/// (src/obs/names.hpp).  A typo'd literal would silently fork a new counter
/// or time series and break the profiler's reconciliation, so string
/// literals with these prefixes are banned in src/ outside that header —
/// call sites spell obs::metric::k... / obs::phase::k... instead.
inline constexpr std::array<std::string_view, 10> kMetricPrefixes = {
    "gcs.",      "invocation.",  "cpu.", "net.",  "orb.",
    "recovery.", "replication.", "obs.", "prof.", "directory.",
};
inline constexpr std::string_view kMetricScopeDir = "src/";
inline constexpr std::string_view kMetricTableFile = "src/obs/names.hpp";

// ---------------------------------------------------------------------------
// Semantic passes (lint_passes.hpp): wire-codec symmetry, struct coverage,
// hot-path allocation discipline.
// ---------------------------------------------------------------------------

/// Directories holding wire formats.  A wire struct declares its layout
/// once, as `void wire(auto& io, WireOf<T> auto& v) { io(v.a, v.b); }`,
/// which the encoder and the decoder both run; struct-coverage checks each
/// layout against T's declared field list (every field once, in order).
/// Hand-written `encode(Encoder&, const T&)` / `decode(Decoder&, T&)` pairs
/// (the primitive codecs in src/serial/) are still paired by
/// codec-symmetry, which compares their ordered op sequences, and checked
/// by struct-coverage the same way.
inline constexpr std::array<std::string_view, 4> kCodecScopeDirs = {
    "src/serial/", "src/gcs/", "src/orb/", "src/invocation/",
};

/// Files outside kCodecScopeDirs whose struct declarations are still wire
/// structs (their codecs live inside the scope dirs).
inline constexpr std::array<std::string_view, 1> kCodecExtraStructFiles = {
    "src/obs/trace.hpp",
};

/// Hot-path regions where the arena-CDR zero-allocation property is
/// enforced statically: the serialization library and the ordering engines'
/// per-message data path.  hot-path-alloc bans `new`, make_unique /
/// make_shared, by-value std::string, std::function, and push_back /
/// emplace_back growth in functions with no visible reserve().
inline constexpr std::array<std::string_view, 2> kHotPathPrefixes = {
    "src/serial/",
    "src/gcs/ordering.",
};

/// Allocating factory calls banned on hot paths.
inline constexpr std::array<std::string_view, 2> kAllocMakeIds = {"make_unique", "make_shared"};

/// Amortised-growth calls banned on hot paths unless the enclosing function
/// visibly pre-sizes with reserve() (or carries a reasoned suppression).
inline constexpr std::array<std::string_view, 2> kAllocGrowthIds = {"push_back", "emplace_back"};

/// float-sim applies under src/: sim-time math is integral-microsecond plus
/// `double` for derived ratios (util/time.hpp); introducing `float` anywhere
/// near it invites silent mixed-precision truncation.
inline constexpr std::string_view kFloatScopeDir = "src/";

/// Scanned roots (relative to the repo root) and excluded subtrees.  The
/// lint fixtures intentionally violate every rule, so they are skipped.
inline constexpr std::array<std::string_view, 5> kScanRoots = {
    "src", "tests", "tools", "bench", "examples",
};
inline constexpr std::array<std::string_view, 1> kExcludedDirs = {"tests/lint_fixtures/"};

// ---------------------------------------------------------------------------
// Layer DAG.
// ---------------------------------------------------------------------------
//
//   util ──────────────┬──────────────────────────────┐
//     │                │                              │
//    obs    serial     │   (obs and serial both sit   │
//     │        │       │    directly on util)         │
//    sim ──────┼───────┘                              │
//     │        │                                      │
//    net ──────┤                                      │
//     │        │                                      │
//    orb ──────┘                                      │
//     │                                               │
//    gcs                                              │
//     │                                               │
//  invocation                                         │
//     │                                               │
//   newtop ◄── replication          fuzz ◄────────────┘
//
// Each entry lists the layers a layer's files may `#include "..."` from,
// in addition to the layer itself.  The table must be acyclic; the scanner
// verifies that at startup (layer_table_is_acyclic).

struct LayerDeps {
    std::string_view layer;
    std::array<std::string_view, 8> deps;  // empty entries are ""
};

inline constexpr std::array<LayerDeps, 11> kLayerTable = {{
    {"util", {}},
    {"obs", {"util"}},
    {"serial", {"util"}},
    {"sim", {"util", "obs"}},
    {"net", {"util", "obs", "sim"}},
    {"orb", {"util", "obs", "serial", "sim", "net"}},
    {"gcs", {"util", "obs", "serial", "sim", "net", "orb"}},
    {"invocation", {"util", "obs", "serial", "sim", "net", "orb", "gcs"}},
    {"newtop", {"util", "obs", "serial", "sim", "net", "orb", "gcs", "invocation"}},
    {"replication", {"util", "obs", "invocation", "newtop"}},
    {"fuzz", {"util", "obs", "gcs", "invocation", "newtop"}},
}};

}  // namespace newtop::lint
