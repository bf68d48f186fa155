// Fixture: wire layouts covering every declared field once, in declaration
// order, including a nested struct and a decode-side check.  Must produce no
// findings.
namespace newtop {

struct SpanStub {
    std::uint64_t trace;
};

struct WirePoint {
    std::uint64_t id;
    std::uint8_t kind;
    SpanStub span;
    std::vector<std::uint32_t> xs;
};

void wire(auto& io, WireOf<SpanStub> auto& v) { io(v.trace); }

void wire(auto& io, WireOf<WirePoint> auto& v) {
    io(v.id, v.kind);
    io(v.span, v.xs);
    io.check(v.xs.size() < 8, "too many xs");
}

}  // namespace newtop
