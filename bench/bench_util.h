#ifndef LAKE_BENCH_BENCH_UTIL_H
#define LAKE_BENCH_BENCH_UTIL_H

/**
 * @file
 * Shared output helpers for the figure/table reproduction harnesses.
 * Every bench prints a self-describing header naming the paper artifact
 * it regenerates, then fixed-width rows that read like the original.
 * JsonWriter additionally emits machine-readable result files
 * (BENCH_<name>.json) so perf trajectories can be tracked across PRs.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace lake::bench {

/** Prints the banner naming the reproduced artifact. */
inline void
banner(const char *artifact, const char *description)
{
    std::printf("==============================================================================\n");
    std::printf("%s — %s\n", artifact, description);
    std::printf("==============================================================================\n");
}

/** Prints a footer summarizing the expected shape from the paper. */
inline void
expectation(const char *text)
{
    std::printf("------------------------------------------------------------------------------\n");
    std::printf("paper shape: %s\n\n", text);
}

/**
 * Minimal streaming JSON writer: enough for flat-ish benchmark result
 * objects, with correct comma placement and number formatting. Usage:
 *
 *   JsonWriter j;
 *   j.beginObject();
 *   j.key("gflops").value(12.5);
 *   j.key("runs").beginArray().value(1).value(2).endArray();
 *   j.endObject();
 *   j.writeFile("BENCH_foo.json");
 */
class JsonWriter
{
  public:
    JsonWriter() { comma_.push_back(false); }

    JsonWriter &
    beginObject()
    {
        sep();
        out_ += '{';
        comma_.push_back(false);
        return *this;
    }

    JsonWriter &
    endObject()
    {
        out_ += '}';
        comma_.pop_back();
        return *this;
    }

    JsonWriter &
    beginArray()
    {
        sep();
        out_ += '[';
        comma_.push_back(false);
        return *this;
    }

    JsonWriter &
    endArray()
    {
        out_ += ']';
        comma_.pop_back();
        return *this;
    }

    /** Emits an object key; the next value belongs to it. */
    JsonWriter &
    key(const char *k)
    {
        sep();
        quoted(k);
        out_ += ':';
        pending_key_ = true;
        return *this;
    }

    JsonWriter &
    value(double v)
    {
        sep();
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        out_ += buf;
        return *this;
    }

    JsonWriter &
    value(std::size_t v)
    {
        sep();
        out_ += std::to_string(v);
        return *this;
    }

    JsonWriter &
    value(const char *s)
    {
        sep();
        quoted(s);
        return *this;
    }

    /**
     * Splices pre-serialized JSON in as a value, verbatim. Lets a
     * harness embed a document produced elsewhere (e.g. the
     * obs::metricsJsonObject() block) without re-walking it.
     */
    JsonWriter &
    rawValue(const std::string &json)
    {
        sep();
        out_ += json;
        return *this;
    }

    /** The serialized document so far. */
    const std::string &str() const { return out_; }

    /** Writes the document to @p path. @return false on I/O failure. */
    bool
    writeFile(const char *path) const
    {
        std::FILE *f = std::fopen(path, "w");
        if (!f)
            return false;
        bool ok = std::fwrite(out_.data(), 1, out_.size(), f) ==
                  out_.size();
        ok = std::fputc('\n', f) != EOF && ok;
        ok = std::fclose(f) == 0 && ok;
        return ok;
    }

  private:
    void
    sep()
    {
        if (pending_key_) {
            pending_key_ = false;
            return;
        }
        if (comma_.back())
            out_ += ',';
        comma_.back() = true;
    }

    void
    quoted(const char *s)
    {
        out_ += '"';
        for (; *s; ++s) {
            if (*s == '"' || *s == '\\')
                out_ += '\\';
            out_ += *s;
        }
        out_ += '"';
    }

    std::string out_;
    std::vector<char> comma_; ///< per-nesting "needs a comma" flag
    bool pending_key_ = false;
};

// Build provenance, stamped by bench/CMakeLists.txt at configure time.
// The fallbacks keep the header usable outside that build (e.g. a
// hand-compiled bench), clearly marked as unstamped.
#ifndef LAKE_BUILD_GIT_REV
#define LAKE_BUILD_GIT_REV "unknown"
#endif
#ifndef LAKE_BUILD_TYPE
#define LAKE_BUILD_TYPE "unknown"
#endif
#ifndef LAKE_BUILD_FLAGS
#define LAKE_BUILD_FLAGS "unknown"
#endif
#ifndef LAKE_BUILD_NATIVE_ARCH
#define LAKE_BUILD_NATIVE_ARCH "unknown"
#endif

/** The CPU model /proc/cpuinfo names first, or "unknown". */
inline std::string
hostCpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    for (std::string l; std::getline(f, l);)
        if (l.rfind("model name", 0) == 0 && l.find(':') != std::string::npos)
            return l.substr(std::min(l.size(), l.find(':') + 2));
    return "unknown";
}

/**
 * Appends a "build" object recording how this binary was produced:
 * compiler, flags, build type, LAKE_NATIVE_ARCH, the git revision the
 * tree was configured at, the LAKE_CPU_THREADS environment in force,
 * and the host's CPU model and hardware thread count. Every
 * BENCH_*.json carries it so two result files can be compared knowing
 * whether the toolchain, ISA tuning or machine moved between them (a
 * real trap: an -march=native binary vs a portable one differ 2x on
 * SIMD-heavy paths with zero source change).
 */
inline JsonWriter &
provenance(JsonWriter &j)
{
    j.key("build").beginObject();
    j.key("compiler").value(__VERSION__);
    j.key("build_type").value(LAKE_BUILD_TYPE);
    j.key("flags").value(LAKE_BUILD_FLAGS);
    j.key("native_arch").value(LAKE_BUILD_NATIVE_ARCH);
    j.key("git_rev").value(LAKE_BUILD_GIT_REV);
    const char *threads = std::getenv("LAKE_CPU_THREADS");
    j.key("lake_cpu_threads").value(threads && *threads ? threads
                                                        : "default");
    j.key("host_cpu").value(hostCpuModel().c_str());
    j.key("host_threads")
        .value(static_cast<std::size_t>(std::thread::hardware_concurrency()));
    j.endObject();
    return j;
}

} // namespace lake::bench

#endif // LAKE_BENCH_BENCH_UTIL_H
