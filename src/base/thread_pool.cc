#include "base/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "base/env.h"
#include "base/logging.h"

namespace lake::base {

namespace {

/** Set while the current thread is executing chunks of some job. */
thread_local bool tl_in_region = false;

std::mutex g_global_mu;
std::unique_ptr<ThreadPool> g_global;

} // namespace

std::size_t
ThreadPool::configuredThreads()
{
    if (const char *env = std::getenv("LAKE_CPU_THREADS")) {
        std::optional<std::size_t> v = envSize("LAKE_CPU_THREADS");
        if (v && *v >= 1 && *v <= 1024)
            return *v;
        warn("ignoring bad LAKE_CPU_THREADS='%s' (want 1..1024)", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool &
ThreadPool::global()
{
    std::lock_guard<std::mutex> lk(g_global_mu);
    if (!g_global)
        g_global = std::make_unique<ThreadPool>(0);
    return *g_global;
}

void
ThreadPool::resetGlobal(std::size_t threads)
{
    std::lock_guard<std::mutex> lk(g_global_mu);
    g_global.reset(); // join the old pool before starting the new one
    g_global = std::make_unique<ThreadPool>(threads);
}

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = configuredThreads();
    workers_.reserve(threads - 1);
    for (std::size_t t = 0; t + 1 < threads; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    // Serialize with in-flight parallelFor calls so members stay valid
    // until every caller has drained its job.
    std::lock_guard<std::mutex> callers(caller_mu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

void
ThreadPool::runChunks(Job &job)
{
    tl_in_region = true;
    for (;;) {
        std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
        if (c >= job.nchunks)
            break;
        std::size_t b = job.begin + c * job.grain;
        std::size_t e = std::min(job.end, b + job.grain);
        try {
            (*job.fn)(b, e);
        } catch (...) {
            panic("exception escaped a ThreadPool::parallelFor task "
                  "(chunk [%zu, %zu)); LAKE tasks must not throw",
                  b, e);
        }
        if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
            job.nchunks) {
            std::lock_guard<std::mutex> lk(mu_);
            done_cv_.notify_all();
        }
    }
    tl_in_region = false;
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_)
            return;
        seen = generation_;
        Job *job = job_;
        if (!job)
            continue;
        ++job->active;
        lk.unlock();
        runChunks(*job);
        lk.lock();
        --job->active;
        if (job->active == 0 && job->done.load() >= job->nchunks)
            done_cv_.notify_all();
    }
}

void
ThreadPool::parallelFor(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)> &fn)
{
    if (end <= begin)
        return;
    if (grain == 0)
        grain = 1;
    std::size_t n = end - begin;
    std::size_t nchunks = (n + grain - 1) / grain;

    // Serial fast path: a 1-thread pool, a single chunk, or a nested
    // call from inside a task. Chunk boundaries are identical to the
    // parallel path, so any observable chunking is unchanged.
    if (workers_.empty() || nchunks == 1 || tl_in_region) {
        bool nested = tl_in_region;
        tl_in_region = true;
        for (std::size_t c = 0; c < nchunks; ++c) {
            std::size_t b = begin + c * grain;
            std::size_t e = std::min(end, b + grain);
            try {
                fn(b, e);
            } catch (...) {
                panic("exception escaped a ThreadPool::parallelFor task "
                      "(chunk [%zu, %zu)); LAKE tasks must not throw",
                      b, e);
            }
        }
        tl_in_region = nested;
        return;
    }

    std::lock_guard<std::mutex> callers(caller_mu_);
    Job job;
    job.begin = begin;
    job.end = end;
    job.grain = grain;
    job.nchunks = nchunks;
    job.fn = &fn;
    {
        std::lock_guard<std::mutex> lk(mu_);
        job_ = &job;
        ++generation_;
    }
    work_cv_.notify_all();

    runChunks(job); // the caller is always a participant

    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
        return job.done.load() >= job.nchunks && job.active == 0;
    });
    job_ = nullptr;
}

} // namespace lake::base
