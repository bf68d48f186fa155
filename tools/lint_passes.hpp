// Semantic analysis passes of newtop_lint.
//
// Where lint_scanner.cpp checks one token stream at a time against banned
// patterns, the passes here understand just enough structure to check
// *relationships*: that every hand-written codec's decode mirrors its encode
// op for op (codec-symmetry), that each `wire` layout and each codec touches
// every declared struct field exactly once in declaration order
// (struct-coverage), and that designated hot-path regions stay free of
// allocating constructs (hot-path-alloc).
//
// The extraction is deliberately syntactic — no types, no overload
// resolution — which is enough because layouts and codecs follow a rigid
// idiom (`io(v.a, v.b)` field lists; one field per codec statement, widths
// spelled in the put_*/get_* name) and the idiom itself is what the passes
// enforce.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "tools/lint_scanner.hpp"

namespace newtop::lint {

struct SourceFile {
    std::string rel_path;  // repo-relative, '/'-separated
    std::string content;
};

/// Run the cross-file passes (codec-symmetry + struct-coverage) over a set
/// of sources.  Only files under lint_rules.hpp:kCodecScopeDirs contribute
/// layouts and codecs; those plus kCodecExtraStructFiles contribute struct field lists.
/// Findings are already suppression-filtered against each file's own
/// allow(rule) comments and carry their file path.
std::vector<Finding> run_semantic_passes(const std::vector<SourceFile>& files);

/// Per-file hot-path-alloc check (no cross-file state); no-op outside
/// kHotPathPrefixes.  Returned findings are NOT suppression-filtered (the
/// caller, scan_source, applies the shared filter).
std::vector<Finding> check_hot_alloc(std::string_view rel_path, std::string_view content);

}  // namespace newtop::lint
