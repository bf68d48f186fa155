#include "gcs/view.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace newtop {

bool View::contains(EndpointId member) const {
    return std::binary_search(members.begin(), members.end(), member);
}

std::optional<std::size_t> View::rank_of(EndpointId member) const {
    const auto it = std::lower_bound(members.begin(), members.end(), member);
    if (it == members.end() || *it != member) return std::nullopt;
    return static_cast<std::size_t>(it - members.begin());
}

EndpointId View::leader() const {
    NEWTOP_EXPECTS(!members.empty(), "view has no members");
    return members.front();
}

}  // namespace newtop
