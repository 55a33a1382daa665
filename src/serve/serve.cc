#include "serve/serve.h"

#include <cstdio>
#include <cstdlib>

namespace lake::serve {

Status
loadTrace(const std::string &path, std::size_t tenants,
          std::vector<TraceEntry> &out)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (!f)
        return Status(Code::NotFound, "cannot open trace " + path);
    out.clear();
    char line[256];
    std::size_t lineno = 0;
    Nanos prev = 0;
    Status st = Status::ok();
    while (std::fgets(line, sizeof line, f)) {
        ++lineno;
        const char *p = line;
        while (*p == ' ' || *p == '\t')
            ++p;
        if (*p == '\0' || *p == '\n' || *p == '#')
            continue;
        char *end = nullptr;
        unsigned long long us = std::strtoull(p, &end, 10);
        if (end == p) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": expected \"<time_us> <tenant>\"");
            break;
        }
        p = end;
        unsigned long long tenant = std::strtoull(p, &end, 10);
        if (end == p) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": missing tenant id");
            break;
        }
        // Only trailing whitespace may follow the pair.
        for (p = end; *p; ++p) {
            if (*p != ' ' && *p != '\t' && *p != '\n' && *p != '\r') {
                st = Status(Code::InvalidArgument,
                            path + ":" + std::to_string(lineno) +
                                ": trailing garbage");
                break;
            }
        }
        if (!st.isOk())
            break;
        Nanos at = static_cast<Nanos>(us) * 1000ull;
        if (at < prev) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": time moves backwards");
            break;
        }
        if (tenant >= tenants) {
            st = Status(Code::InvalidArgument,
                        path + ":" + std::to_string(lineno) +
                            ": tenant " + std::to_string(tenant) +
                            " out of range (have " +
                            std::to_string(tenants) + ")");
            break;
        }
        prev = at;
        out.push_back(TraceEntry{at, static_cast<std::size_t>(tenant)});
    }
    std::fclose(f);
    if (!st.isOk())
        out.clear();
    return st;
}

} // namespace lake::serve
