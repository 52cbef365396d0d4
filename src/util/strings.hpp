/**
 * @file
 * Small string helpers shared by the command-line tools.
 */

#ifndef MRP_UTIL_STRINGS_HPP
#define MRP_UTIL_STRINGS_HPP

#include <string>
#include <vector>

namespace mrp {

/**
 * Split @p s at every comma. Empty fields are kept, so "" gives one
 * empty field, "a,,b" three fields and "a," two.
 */
inline std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const auto comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

} // namespace mrp

#endif // MRP_UTIL_STRINGS_HPP
