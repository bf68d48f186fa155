// Fixture: seeded mutation — the layout lists two fields out of declaration
// order.  Encode and decode stay symmetric (they run the same list), so only
// struct-coverage can see it: must fire exactly once.
namespace newtop {

struct WireSwap {
    std::uint64_t id;
    std::uint32_t x;
    std::uint32_t y;
};

void wire(auto& io, WireOf<WireSwap> auto& v) { io(v.id, v.y, v.x); }

}  // namespace newtop
