// lakebench: runs one LAKE benchmark workload and prints its metrics.
//
//   lakebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file.json>]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
// holding every end-to-end metric (--trace 0) or every per-layer
// metric (--trace 1) declared in BENCHMARK.json.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

using namespace lakebench;

namespace {

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "lakebench: %s\n"
                 "usage: lakebench --workload score_open|score_fleet|"
                 "capture_closed|crypt_bulk --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n",
                 why);
    return 2;
}

bool
parseNumber(const char *s, double *out)
{
    char *end = nullptr;
    *out = std::strtod(s, &end);
    return end != s && *end == '\0' && std::isfinite(*out);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value after " + a).c_str());
        const char *v = argv[++i];
        double num = 0.0;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            if (!parseNumber(v, &num) || num < 0 || num != std::floor(num))
                return usage("--seed wants a whole number");
            opt.seed = static_cast<std::uint64_t>(num);
            have_seed = true;
        } else if (a == "--seconds") {
            if (!parseNumber(v, &num) || num <= 0 || num > 600)
                return usage("--seconds wants a number in (0, 600]");
            opt.seconds = num;
            have_seconds = true;
        } else if (a == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                return usage("--trace wants 0 or 1");
            opt.trace = v[0] == '1';
            have_trace = true;
        } else if (a == "--trace-out") {
            opt.trace_out = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    if (!have_seed || !have_seconds || !have_trace || opt.workload.empty())
        return usage("--workload, --seed, --seconds and --trace are required");

    Outcome (*run)(const Options &) = nullptr;
    if (opt.workload == "score_open")
        run = runScoreOpen;
    else if (opt.workload == "score_fleet")
        run = runScoreFleet;
    else if (opt.workload == "capture_closed")
        run = runCaptureClosed;
    else if (opt.workload == "crypt_bulk")
        run = runCryptBulk;
    else
        return usage(("unknown workload " + opt.workload).c_str());

    printProvenance(stdout, opt);
    std::fflush(stdout);
    Outcome out = run(opt);

    // Every declared metric, in declaration order. A traced run
    // reports 0 for the layers its workload bypasses.
    const std::vector<MetricSpec> &want = opt.trace ? kPerLayer : kEndToEnd;
    for (const Metric &m : out.metrics) {
        bool known = false;
        for (const MetricSpec &s : want)
            known = known || (m.name == s.name && m.unit == s.unit);
        if (!known)
            out.fail("undeclared metric " + m.name + " [" + m.unit + "]");
    }
    std::string json = "{\"correct\": ";
    std::string body;
    for (const MetricSpec &s : want) {
        double v = out.get(s.name);
        if (std::isnan(v)) {
            if (!opt.trace)
                out.fail(std::string("no value for ") + s.name);
            v = 0.0;
        }
        if (!std::isfinite(v)) {
            out.fail(std::string("non-finite value for ") + s.name);
            v = 0.0;
        }
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      body.empty() ? "" : ", ", s.name, v, s.unit);
        body += buf;
    }
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "lakebench: check failed: %s\n", e.c_str());
    if (out.attempted == 0) {
        out.fail("no operation attempted");
        out.attempted = 1;
        out.failed = 1;
    }
    json += out.correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {" + body + "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
