// Chaos campaigns: drive N seeded scenarios through run_scenario() and,
// on the first failing seed, replay and shrink the scenario to a minimal
// reproducer before reporting.
//
// Shrinking is greedy structural reduction on the Scenario itself: drop
// fault events, clients, peer groups, server replicas and unused services
// one at a time, then halve call counts — keeping each edit only while
// the failure still reproduces — and repeat to a fixpoint.  Because a
// run's verdict is a pure function of (scenario, mutator), every shrink
// probe is an exact replay, not a statistical one.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "fuzz/runner.hpp"
#include "fuzz/scenario.hpp"

namespace newtop::fuzz {

struct CampaignOptions {
    std::uint64_t base_seed{1};
    int runs{50};
    ScenarioLimits limits{};
    RunOptions run{};
    bool shrink{true};
    /// Progress hook, called after every (non-shrink) run.
    std::function<void(const RunResult&)> on_run;
};

struct CampaignResult {
    int runs{0};
    int failures{0};
    std::optional<RunResult> first_failure;
    std::optional<Scenario> failing_scenario;
    std::optional<Scenario> shrunk;

    [[nodiscard]] bool ok() const { return failures == 0; }
    /// Human-readable verdict; on failure leads with the seed and the
    /// one-command replay line.
    [[nodiscard]] std::string report() const;
};

class CampaignRunner {
public:
    explicit CampaignRunner(CampaignOptions options) : options_(std::move(options)) {}

    /// Run seeds [base_seed, base_seed + runs); stops at the first failing
    /// seed (shrinking it if enabled).
    [[nodiscard]] CampaignResult run() const;

    /// Greedy structural minimisation of a failing scenario.
    [[nodiscard]] Scenario shrink(const Scenario& failing) const;

    [[nodiscard]] const CampaignOptions& options() const { return options_; }

private:
    [[nodiscard]] bool fails(const Scenario& scenario) const;

    CampaignOptions options_;
};

}  // namespace newtop::fuzz
