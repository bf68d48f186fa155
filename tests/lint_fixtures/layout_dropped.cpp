// Fixture: seeded mutation — the layout drops the trailing field, so neither
// direction of the codec carries it.  Must fire struct-coverage once (the
// layout never touches the declared field 'tag').
namespace newtop {

struct WireDrop {
    std::uint64_t id;
    std::uint32_t x;
    std::uint8_t tag;
};

void wire(auto& io, WireOf<WireDrop> auto& v) { io(v.id, v.x); }

}  // namespace newtop
