#include "isa/opcode.hpp"

#include "sim/check.hpp"

namespace dta::isa {

std::string_view op_name(Opcode op) {
    DTA_CHECK_MSG(static_cast<std::size_t>(op) < op_count(),
                  "opcode out of range");
    return op_info(op).name;
}

}  // namespace dta::isa
