#include "tools/lint_passes.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <tuple>

#include "tools/lint_lex.hpp"
#include "tools/lint_rules.hpp"

namespace newtop::lint {

namespace {

bool has_prefix_in(std::string_view path, const auto& prefixes) {
    for (std::string_view p : prefixes) {
        if (path.substr(0, p.size()) == p) return true;
    }
    return false;
}

template <typename Table>
bool in_table(const Table& table, std::string_view s) {
    for (std::string_view entry : table) {
        if (!entry.empty() && entry == s) return true;
    }
    return false;
}

bool is_ident(const Token& t, std::string_view text) {
    return t.kind == TokKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
    return t.kind == TokKind::kPunct && t.text == text;
}

// ---------------------------------------------------------------------------
// Codec extraction.
//
// A codec is a non-template definition
//     void encode[_body](Encoder& e, const T& v) { <one op per statement> }
//     void decode[_body](Decoder& d, T& v)       { ... }
// Ops are primitive writes/reads (e.put_u64(v.f) / v.f = d.get_u64()) or
// nested recursion (encode(e, v.f) / decode(d, v.f)).  The decode side also
// understands the validated-cast idiom, where the raw value lands in a
// local named after the field:
//     const std::uint8_t kind = d.get_u8();  ...  v.kind = cast(kind);
// ---------------------------------------------------------------------------

struct CodecOp {
    std::string width;  // "u8".."i64", "bool", "double", "string", "blob", "nested"
    std::string field;  // "" for whole-parameter primitive codecs
    int line;
};

struct CodecDef {
    std::string file;
    int line = 0;
    std::string type;  // last identifier of the value parameter's type
    bool is_encode = false;
    std::vector<CodecOp> ops;
    bool is_layout = false;  // a `wire` layout (both directions), not a codec
};

constexpr std::array<std::string_view, 10> kOpWidths = {
    "u8", "u16", "u32", "u64", "i32", "i64", "bool", "double", "string", "blob",
};

/// "put_u64" / "get_blob_view" -> the normalized width, or "" if not an op.
std::string op_width(std::string_view name, bool is_encode) {
    const std::string_view want = is_encode ? "put_" : "get_";
    if (name.substr(0, want.size()) != want) return {};
    std::string_view w = name.substr(want.size());
    if (w == "blob_view") w = "blob";
    return in_table(kOpWidths, w) ? std::string(w) : std::string{};
}

/// One parameter's tokens, split from a parameter list.
struct Param {
    std::vector<std::string> idents;  // identifiers in order, "const" skipped
};

/// Extract one op from a statement's tokens, if it contains one.
std::optional<CodecOp> stmt_op(const std::vector<Token>& stmt, bool is_encode,
                               const std::string& coder, const std::string& param) {
    // Primitive op: coder . put_X/get_X ( ... )
    for (std::size_t k = 0; k + 2 < stmt.size(); ++k) {
        if (!is_ident(stmt[k], coder) || !is_punct(stmt[k + 1], ".")) continue;
        const std::string width = op_width(stmt[k + 2].text, is_encode);
        if (width.empty()) continue;
        CodecOp op{width, "", stmt[k].line};
        if (is_encode) {
            // Field = first `param . ident` inside the call's arguments.
            for (std::size_t a = k + 3; a + 2 < stmt.size(); ++a) {
                if (is_ident(stmt[a], param) && is_punct(stmt[a + 1], ".") &&
                    stmt[a + 2].kind == TokKind::kIdentifier) {
                    op.field = stmt[a + 2].text;
                    break;
                }
            }
        } else {
            // Field = the identifier assigned to: `v.f = ...` or the local in
            // the alias idiom `const std::uint8_t f = d.get_u8();`.  A bare
            // `v = d.get_X()` is the whole-parameter primitive codec.
            for (std::size_t a = k; a-- > 0;) {
                if (!is_punct(stmt[a], "=")) continue;
                if (a > 0 && stmt[a - 1].kind == TokKind::kIdentifier &&
                    stmt[a - 1].text != param) {
                    op.field = stmt[a - 1].text;
                }
                break;
            }
        }
        return op;
    }
    // Nested recursion: encode(e, v.f) / decode(d, v.f) as a full statement.
    const std::string_view callee = is_encode ? "encode" : "decode";
    if (stmt.size() >= 4 && is_ident(stmt[0], std::string(callee)) && is_punct(stmt[1], "(")) {
        CodecOp op{"nested", "", stmt[0].line};
        for (std::size_t a = 2; a + 2 < stmt.size(); ++a) {
            if (is_ident(stmt[a], param) && is_punct(stmt[a + 1], ".") &&
                stmt[a + 2].kind == TokKind::kIdentifier) {
                op.field = stmt[a + 2].text;
                break;
            }
        }
        return op;
    }
    return std::nullopt;
}

void extract_codecs(const std::string& file, const std::vector<Token>& t,
                    std::vector<CodecDef>& out) {
    constexpr std::array<std::string_view, 4> kCodecNames = {"encode", "decode", "encode_body",
                                                             "decode_body"};
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind != TokKind::kIdentifier || !in_table(kCodecNames, t[i].text)) continue;
        if (!is_punct(t[i + 1], "(")) continue;
        // Definitions only, returning void; `template <...>` overloads (the
        // generic container/StrongId codecs) are out of scope.
        if (i == 0 || !is_ident(t[i - 1], "void")) continue;
        {
            std::size_t j = i - 1;
            while (j > 0 && t[j - 1].kind == TokKind::kIdentifier &&
                   (t[j - 1].text == "inline" || t[j - 1].text == "static" ||
                    t[j - 1].text == "constexpr" || t[j - 1].text == "friend")) {
                --j;
            }
            if (j > 0 && is_punct(t[j - 1], ">")) continue;  // template
        }
        const bool is_encode = t[i].text.substr(0, 6) == "encode";

        // Parameter list: split at top-level commas up to the matching ')'.
        std::vector<Param> params(1);
        int depth = 1;
        std::size_t p = i + 2;
        for (; p < t.size() && depth > 0; ++p) {
            if (is_punct(t[p], "(")) ++depth;
            if (is_punct(t[p], ")") && --depth == 0) break;
            if (is_punct(t[p], ",") && depth == 1) {
                params.emplace_back();
                continue;
            }
            if (t[p].kind == TokKind::kIdentifier && t[p].text != "const") {
                params.back().idents.push_back(t[p].text);
            }
        }
        if (p >= t.size() || params.size() != 2) continue;
        const Param& coder_p = params[0];
        const Param& value_p = params[1];
        const std::string_view want_coder = is_encode ? "Encoder" : "Decoder";
        if (std::find(coder_p.idents.begin(), coder_p.idents.end(), want_coder) ==
            coder_p.idents.end()) {
            continue;
        }
        if (coder_p.idents.empty() || value_p.idents.size() < 2) continue;
        const std::string coder = coder_p.idents.back();
        const std::string param = value_p.idents.back();
        const std::string type = value_p.idents[value_p.idents.size() - 2];
        if (p + 1 >= t.size() || !is_punct(t[p + 1], "{")) continue;  // declaration

        CodecDef def{file, t[i].line, type, is_encode, {}};
        int body_depth = 1;
        std::vector<Token> stmt;
        for (std::size_t b = p + 2; b < t.size() && body_depth > 0; ++b) {
            if (is_punct(t[b], "{")) {
                ++body_depth;
                stmt.clear();
                continue;
            }
            if (is_punct(t[b], "}")) {
                --body_depth;
                stmt.clear();
                continue;
            }
            if (is_punct(t[b], ";")) {
                if (auto op = stmt_op(stmt, is_encode, coder, param)) def.ops.push_back(*op);
                stmt.clear();
                continue;
            }
            stmt.push_back(t[b]);
        }
        out.push_back(std::move(def));
    }
}

// ---------------------------------------------------------------------------
// Layout extraction.
//
// A layout is a wire struct's one field list, which the encoder and the
// decoder both run:
//     void wire(auto& io, WireOf<T> auto& v) { io(v.a, v.b); io.check(...); }
// Its ops are the arguments of the `io(...)` calls, in order; each should be
// a plain `v.field`.  Other statements (`io.check(...)`) touch no field.
// ---------------------------------------------------------------------------

/// Index of the ')' matching the '(' at `open`, or t.size() if unbalanced.
std::size_t matching_paren(const std::vector<Token>& t, std::size_t open) {
    int depth = 0;
    for (std::size_t k = open; k < t.size(); ++k) {
        if (is_punct(t[k], "(")) ++depth;
        if (is_punct(t[k], ")") && --depth == 0) return k;
    }
    return t.size();
}

/// Split the tokens strictly between `open` and `close` at top-level commas
/// (nested (), <> and {} kept whole).
std::vector<std::vector<Token>> split_args(const std::vector<Token>& t, std::size_t open,
                                           std::size_t close) {
    std::vector<std::vector<Token>> args(1);
    int depth = 0;
    for (std::size_t k = open + 1; k < close; ++k) {
        if (is_punct(t[k], "(") || is_punct(t[k], "<") || is_punct(t[k], "{")) ++depth;
        if (is_punct(t[k], ")") || is_punct(t[k], ">") || is_punct(t[k], "}")) --depth;
        if (depth == 0 && is_punct(t[k], ",")) {
            args.emplace_back();
            continue;
        }
        args.back().push_back(t[k]);
    }
    return args;
}

void extract_layouts(const std::string& file, const std::vector<Token>& t,
                     std::vector<CodecDef>& out, std::vector<Finding>& findings) {
    for (std::size_t i = 1; i + 1 < t.size(); ++i) {
        if (!is_ident(t[i], "wire") || !is_punct(t[i + 1], "(") || !is_ident(t[i - 1], "void")) {
            continue;
        }
        const std::size_t close = matching_paren(t, i + 1);
        if (close + 1 >= t.size() || !is_punct(t[close + 1], "{")) continue;  // declaration

        // Parameters: `auto& io, WireOf<T> auto& v`.
        const auto params = split_args(t, i + 1, close);
        std::string io;
        std::string type;
        std::string param;
        if (params.size() == 2 && !params[0].empty() && !params[1].empty() &&
            params[0].back().kind == TokKind::kIdentifier &&
            params[1].back().kind == TokKind::kIdentifier) {
            io = params[0].back().text;
            param = params[1].back().text;
            const auto& p = params[1];
            for (std::size_t k = 0; k + 1 < p.size(); ++k) {
                if (!is_ident(p[k], "WireOf") || !is_punct(p[k + 1], "<")) continue;
                for (std::size_t a = k + 2; a < p.size() && !is_punct(p[a], ">"); ++a) {
                    if (p[a].kind == TokKind::kIdentifier) type = p[a].text;
                }
                break;
            }
        }
        if (type.empty()) {
            findings.push_back({file, t[i].line, std::string(kRuleStructCoverage),
                                "wire layout is not in the checked form "
                                "'void wire(auto& io, WireOf<T> auto& v)'"});
            continue;
        }

        CodecDef def{file, t[i].line, type, false, {}, true};
        int depth = 0;
        for (std::size_t b = close + 1; b < t.size(); ++b) {
            if (is_punct(t[b], "{")) ++depth;
            if (is_punct(t[b], "}") && --depth == 0) break;
            if (!is_ident(t[b], io) || b + 1 >= t.size() || !is_punct(t[b + 1], "(")) continue;
            if (is_punct(t[b - 1], ".") || is_punct(t[b - 1], "->")) continue;
            const std::size_t call_close = matching_paren(t, b + 1);
            for (const auto& arg : split_args(t, b + 1, call_close)) {
                const bool plain_field = arg.size() == 3 && is_ident(arg[0], param) &&
                                         is_punct(arg[1], ".") &&
                                         arg[2].kind == TokKind::kIdentifier;
                def.ops.push_back({"field", plain_field ? arg[2].text : "", t[b].line});
            }
            b = call_close;
        }
        out.push_back(std::move(def));
    }
}

// ---------------------------------------------------------------------------
// Struct extraction: declared field names, in order.
// ---------------------------------------------------------------------------

struct StructDef {
    std::string file;
    int line = 0;
    std::string name;
    std::vector<std::string> fields;
};

void extract_structs(const std::string& file, const std::vector<Token>& t,
                     std::vector<StructDef>& out) {
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (!is_ident(t[i], "struct") || t[i + 1].kind != TokKind::kIdentifier) continue;
        std::size_t b = i + 2;
        if (is_punct(t[b], ":")) {  // base clause
            while (b < t.size() && !is_punct(t[b], "{") && !is_punct(t[b], ";")) ++b;
        }
        if (b >= t.size() || !is_punct(t[b], "{")) continue;  // forward decl / elaborated use

        StructDef def{file, t[i].line, t[i + 1].text, {}};
        std::vector<Token> stmt;
        bool stmt_braced = false;     // statement carried a {...} (default init / fn body)
        std::size_t brace_field = 0;  // index of last identifier before that brace
        auto flush = [&] {
            // A field declaration: no parens, not starting with a structural
            // keyword, ends in the field name (or `name{init}`).
            bool ok = !stmt.empty();
            for (const Token& tok : stmt) {
                if (is_punct(tok, "(") || is_punct(tok, ")")) ok = false;
            }
            constexpr std::array<std::string_view, 12> kNotField = {
                "friend", "using",  "static",  "typedef",   "template", "struct",
                "class",  "enum",   "public",  "private",   "protected", "operator",
            };
            if (ok && stmt[0].kind == TokKind::kIdentifier && in_table(kNotField, stmt[0].text)) {
                ok = false;
            }
            if (ok) {
                if (stmt_braced) {
                    if (brace_field < stmt.size() &&
                        stmt[brace_field].kind == TokKind::kIdentifier) {
                        def.fields.push_back(stmt[brace_field].text);
                    }
                } else {
                    for (std::size_t k = stmt.size(); k-- > 0;) {
                        if (stmt[k].kind == TokKind::kIdentifier) {
                            def.fields.push_back(stmt[k].text);
                            break;
                        }
                    }
                }
            }
            stmt.clear();
            stmt_braced = false;
        };
        int skip_depth = 0;
        std::size_t j = b + 1;
        for (; j < t.size(); ++j) {
            if (skip_depth > 0) {  // inside a nested {...}: fn body, init, nested type
                if (is_punct(t[j], "{")) ++skip_depth;
                if (is_punct(t[j], "}")) --skip_depth;
                continue;
            }
            if (is_punct(t[j], "{")) {
                if (!stmt_braced) {
                    stmt_braced = true;
                    brace_field = stmt.empty() ? 0 : stmt.size() - 1;
                }
                skip_depth = 1;
                continue;
            }
            if (is_punct(t[j], "}")) break;  // end of struct body
            if (is_punct(t[j], ";")) {
                flush();
                continue;
            }
            stmt.push_back(t[j]);
        }
        out.push_back(std::move(def));
    }
}

// ---------------------------------------------------------------------------
// The two cross-file checks.
// ---------------------------------------------------------------------------

std::string op_desc(const CodecOp& op) {
    std::string d = op.width;
    d += op.field.empty() ? " <whole value>" : " '" + op.field + "'";
    return d;
}

void check_symmetry(const std::vector<CodecDef>& codecs, std::vector<Finding>& out) {
    std::map<std::string, std::pair<const CodecDef*, const CodecDef*>> by_type;
    for (const CodecDef& def : codecs) {
        auto& slot = by_type[def.type];
        const CodecDef*& side = def.is_encode ? slot.first : slot.second;
        if (side != nullptr) {
            out.push_back({def.file, def.line, std::string(kRuleCodecSymmetry),
                           "duplicate " + std::string(def.is_encode ? "encode" : "decode") +
                               " definition for '" + def.type + "' (first at " + side->file + ":" +
                               std::to_string(side->line) + ")"});
            continue;
        }
        side = &def;
    }
    for (const auto& [type, pair] : by_type) {
        const CodecDef* enc = pair.first;
        const CodecDef* dec = pair.second;
        if (enc == nullptr || dec == nullptr) {
            const CodecDef* have = enc != nullptr ? enc : dec;
            out.push_back({have->file, have->line, std::string(kRuleCodecSymmetry),
                           std::string(have->is_encode ? "encode" : "decode") + "('" + type +
                               "') has no matching " + (have->is_encode ? "decode" : "encode") +
                               " anywhere in the codec scope"});
            continue;
        }
        const std::size_t n = std::min(enc->ops.size(), dec->ops.size());
        bool mismatched = false;
        for (std::size_t i = 0; i < n; ++i) {
            const CodecOp& a = enc->ops[i];
            const CodecOp& b = dec->ops[i];
            if (a.width == b.width && a.field == b.field) continue;
            out.push_back({dec->file, b.line, std::string(kRuleCodecSymmetry),
                           "'" + type + "' op #" + std::to_string(i + 1) + ": encode writes " +
                               op_desc(a) + " (" + enc->file + ":" + std::to_string(a.line) +
                               ") but decode reads " + op_desc(b)});
            mismatched = true;
            break;  // one divergence desynchronizes everything after it
        }
        if (!mismatched && enc->ops.size() != dec->ops.size()) {
            out.push_back({dec->file, dec->line, std::string(kRuleCodecSymmetry),
                           "'" + type + "': encode performs " + std::to_string(enc->ops.size()) +
                               " ops (" + enc->file + ":" + std::to_string(enc->line) +
                               ") but decode performs " + std::to_string(dec->ops.size())});
        }
    }
}

void check_coverage(const std::vector<CodecDef>& codecs, const std::vector<StructDef>& structs,
                    std::vector<Finding>& out) {
    std::map<std::string, std::vector<const StructDef*>> by_name;
    for (const StructDef& s : structs) by_name[s.name].push_back(&s);

    for (const CodecDef& def : codecs) {
        const auto it = by_name.find(def.type);
        if (it == by_name.end() || it->second.size() != 1) continue;  // no/ambiguous struct
        const StructDef& s = *it->second.front();
        const char* side = def.is_layout ? "wire" : def.is_encode ? "encode" : "decode";

        std::vector<std::string> touched;
        bool attributable = true;
        for (const CodecOp& op : def.ops) {
            if (op.field.empty()) {
                out.push_back({def.file, op.line, std::string(kRuleStructCoverage),
                               std::string(side) + "('" + def.type + "') op (" + op.width +
                                   ") is not attributable to a declared field"});
                attributable = false;
                continue;
            }
            touched.push_back(op.field);
        }
        bool name_problem = !attributable;
        std::vector<std::string> unknown_reported;
        for (const std::string& f : touched) {
            if (std::find(s.fields.begin(), s.fields.end(), f) != s.fields.end()) continue;
            if (std::count(unknown_reported.begin(), unknown_reported.end(), f) != 0) continue;
            unknown_reported.push_back(f);
            out.push_back({def.file, def.line, std::string(kRuleStructCoverage),
                           std::string(side) + "('" + def.type + "') touches '" + f +
                               "', which is not a declared field (" + s.file + ":" +
                               std::to_string(s.line) + ")"});
            name_problem = true;
        }
        std::vector<std::string> seen;
        for (const std::string& f : touched) {
            if (std::count(seen.begin(), seen.end(), f) == 0 &&
                std::count(touched.begin(), touched.end(), f) > 1) {
                out.push_back({def.file, def.line, std::string(kRuleStructCoverage),
                               std::string(side) + "('" + def.type + "') touches field '" + f +
                                   "' more than once"});
                name_problem = true;
            }
            seen.push_back(f);
        }
        for (const std::string& f : s.fields) {
            if (std::find(touched.begin(), touched.end(), f) == touched.end()) {
                out.push_back({def.file, def.line, std::string(kRuleStructCoverage),
                               std::string(side) + "('" + def.type + "') never touches declared "
                                   "field '" + f + "' (" + s.file + ":" +
                                   std::to_string(s.line) + ")"});
                name_problem = true;
            }
        }
        // Same multiset, each exactly once: any residual difference is order.
        if (!name_problem && touched != s.fields) {
            for (std::size_t i = 0; i < touched.size(); ++i) {
                if (touched[i] != s.fields[i]) {
                    out.push_back(
                        {def.file, def.line, std::string(kRuleStructCoverage),
                         std::string(side) + "('" + def.type + "') touches fields out of "
                             "declaration order: position " + std::to_string(i + 1) + " is '" +
                             touched[i] + "' but the struct declares '" + s.fields[i] + "' (" +
                             s.file + ":" + std::to_string(s.line) + ")"});
                    break;
                }
            }
        }
    }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

std::vector<Finding> run_semantic_passes(const std::vector<SourceFile>& files) {
    std::vector<CodecDef> codecs;
    std::vector<CodecDef> layouts;
    std::vector<StructDef> structs;
    std::vector<Finding> raw;
    std::map<std::string, Suppressions> sup_by_file;
    for (const SourceFile& f : files) {
        const bool codec_scope = has_prefix_in(f.rel_path, kCodecScopeDirs);
        const bool struct_scope = codec_scope || in_table(kCodecExtraStructFiles, f.rel_path);
        if (!struct_scope) continue;
        const Lexed lx = lex(f.content);
        sup_by_file.emplace(f.rel_path, parse_suppressions(lx));
        if (codec_scope) {
            extract_codecs(f.rel_path, lx.tokens, codecs);
            extract_layouts(f.rel_path, lx.tokens, layouts, raw);
        }
        extract_structs(f.rel_path, lx.tokens, structs);
    }

    check_symmetry(codecs, raw);
    check_coverage(codecs, structs, raw);
    check_coverage(layouts, structs, raw);

    std::vector<Finding> out;
    for (Finding& f : raw) {
        const auto file_it = sup_by_file.find(f.file);
        if (file_it != sup_by_file.end()) {
            const auto line_it = file_it->second.by_line.find(f.line);
            if (line_it != file_it->second.by_line.end() &&
                line_it->second.count(f.rule) != 0) {
                continue;
            }
        }
        out.push_back(std::move(f));
    }
    std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
        return std::tie(a.file, a.line, a.rule, a.message) <
               std::tie(b.file, b.line, b.rule, b.message);
    });
    return out;
}

std::vector<Finding> check_hot_alloc(std::string_view rel_path, std::string_view content) {
    std::vector<Finding> out;
    if (!has_prefix_in(rel_path, kHotPathPrefixes)) return out;
    const Lexed lx = lex(content);
    const auto& t = lx.tokens;

    auto add = [&out](int line, std::string message) {
        out.push_back({"", line, std::string(kRuleHotAlloc), std::move(message)});
    };

    // Brace frames: each `{` is either a function body (allocation scope for
    // the reserve() heuristic) or a plain block (control flow, class,
    // namespace, init list) that growth checks look *through*.
    struct Frame {
        bool is_function;
        bool saw_reserve;
    };
    std::vector<Frame> frames;
    std::vector<std::size_t> open_parens;          // indices of unmatched '('
    std::map<std::size_t, std::size_t> partner_of;  // ')' index -> '(' index

    for (std::size_t i = 0; i < t.size(); ++i) {
        const Token& tok = t[i];
        if (is_punct(tok, "(")) {
            open_parens.push_back(i);
            continue;
        }
        if (is_punct(tok, ")")) {
            if (!open_parens.empty()) {
                partner_of[i] = open_parens.back();
                open_parens.pop_back();
            }
            continue;
        }
        if (is_punct(tok, "{")) {
            // Function body iff the brace follows a `)` (allowing const /
            // noexcept / override / final between) whose `(` is not a
            // control-flow head.
            bool is_function = false;
            std::size_t j = i;
            int skipped = 0;
            while (j > 0 && skipped < 4 && t[j - 1].kind == TokKind::kIdentifier &&
                   (t[j - 1].text == "const" || t[j - 1].text == "noexcept" ||
                    t[j - 1].text == "override" || t[j - 1].text == "final")) {
                --j;
                ++skipped;
            }
            if (j > 0 && is_punct(t[j - 1], ")")) {
                const auto p = partner_of.find(j - 1);
                if (p != partner_of.end()) {
                    const std::size_t open = p->second;
                    const bool control =
                        open > 0 && t[open - 1].kind == TokKind::kIdentifier &&
                        (t[open - 1].text == "if" || t[open - 1].text == "for" ||
                         t[open - 1].text == "while" || t[open - 1].text == "switch" ||
                         t[open - 1].text == "catch");
                    is_function = !control;
                }
            }
            frames.push_back({is_function, false});
            continue;
        }
        if (is_punct(tok, "}")) {
            if (!frames.empty()) frames.pop_back();
            continue;
        }
        if (tok.kind != TokKind::kIdentifier) continue;

        const Token* prev = i > 0 ? &t[i - 1] : nullptr;
        const Token* prev2 = i > 1 ? &t[i - 2] : nullptr;
        const Token* next = i + 1 < t.size() ? &t[i + 1] : nullptr;
        const bool std_qualified = prev != nullptr && is_punct(*prev, "::") && prev2 != nullptr &&
                                   is_ident(*prev2, "std");

        if (tok.text == "reserve" && !frames.empty()) {
            frames.back().saw_reserve = true;
            continue;
        }
        if (tok.text == "new" && (prev == nullptr || !is_ident(*prev, "operator"))) {
            add(tok.line, "'new' allocates on a hot path; use the arena / preallocated storage");
            continue;
        }
        if (in_table(kAllocMakeIds, tok.text)) {
            add(tok.line, "'" + tok.text + "' allocates on a hot path; use the arena / "
                          "preallocated storage");
            continue;
        }
        if (tok.text == "function" && std_qualified) {
            add(tok.line,
                "std::function type-erases with heap allocation on a hot path; use a template "
                "parameter or function pointer");
            continue;
        }
        if (tok.text == "string" && std_qualified &&
            (next == nullptr || (!is_punct(*next, "&") && !is_punct(*next, "*")))) {
            add(tok.line,
                "by-value std::string allocates on a hot path; use std::string_view or a "
                "borrowed buffer");
            continue;
        }
        if (in_table(kAllocGrowthIds, tok.text) && prev != nullptr &&
            (is_punct(*prev, ".") || is_punct(*prev, "->"))) {
            bool reserved = false;
            for (std::size_t f = frames.size(); f-- > 0;) {
                if (frames[f].saw_reserve) {
                    reserved = true;
                    break;
                }
                if (frames[f].is_function) break;
            }
            if (!reserved) {
                add(tok.line, "'" + tok.text + "' may grow (reallocate) on a hot path and the "
                              "enclosing function never calls reserve(); pre-size the container "
                              "or suppress with a bound");
            }
        }
    }
    return out;
}

}  // namespace newtop::lint
