#include "base/thread_pool.h"

#include <algorithm>
#include <utility>

namespace aftermath {
namespace base {

namespace {

/** The pool whose High task the calling thread runs, if any:
 *  parallelFor() queues that task's helpers at High too. */
thread_local const ThreadPool *tlsHighTaskPool = nullptr;

} // namespace

unsigned
ThreadPool::defaultWorkers()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned num_workers)
{
    if (num_workers == 0)
        num_workers = defaultWorkers();
    workers_.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; i++)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stopping_ = true;
    }
    wake_.notifyAll();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task, TaskPriority priority)
{
    {
        MutexLock lock(mutex_);
        if (priority == TaskPriority::High) {
            highQueue_.push_back(std::move(task));
            // Published under the lock, read lock-free by yield probes:
            // the count only needs to be eventually visible, and the
            // release pairs with hasHighPriorityWork()'s acquire.
            highQueued_.fetch_add(1, std::memory_order_release);
        } else {
            queue_.push_back(std::move(task));
        }
    }
    wake_.notifyOne();
}

bool
TaskHandle::tryCancel()
{
    if (!shared_)
        return false;
    MutexLock lock(shared_->mutex);
    if (shared_->state != State::Queued)
        return false;
    shared_->state = State::Skipped;
    shared_->cv.notifyAll();
    return true;
}

bool
TaskHandle::done() const
{
    if (!shared_)
        return false;
    MutexLock lock(shared_->mutex);
    return shared_->state == State::Finished ||
           shared_->state == State::Skipped;
}

bool
TaskHandle::skipped() const
{
    if (!shared_)
        return false;
    MutexLock lock(shared_->mutex);
    return shared_->state == State::Skipped;
}

void
TaskHandle::wait() const
{
    if (!shared_)
        return;
    MutexLock lock(shared_->mutex);
    while (shared_->state != State::Finished &&
           shared_->state != State::Skipped)
        shared_->cv.wait(lock);
}

TaskHandle
ThreadPool::submitTracked(std::function<void()> task, TaskPriority priority)
{
    auto shared = std::make_shared<TaskHandle::Shared>();
    submit(
        [shared, task = std::move(task)] {
            {
                MutexLock lock(shared->mutex);
                if (shared->state == TaskHandle::State::Skipped)
                    return; // Cancelled while queued; never run.
                shared->state = TaskHandle::State::Running;
            }
            task();
            MutexLock lock(shared->mutex);
            shared->state = TaskHandle::State::Finished;
            shared->cv.notifyAll();
        },
        priority);
    return TaskHandle(shared);
}

void
ThreadPool::wait()
{
    MutexLock lock(mutex_);
    while (!highQueue_.empty() || !queue_.empty() || running_ > 0)
        idle_.wait(lock);
}

std::chrono::steady_clock::duration
ThreadPool::idleFor() const
{
    MutexLock lock(mutex_);
    if (!highQueue_.empty() || !queue_.empty() || running_ > 0)
        return std::chrono::steady_clock::duration::zero();
    return std::chrono::steady_clock::now() - idleSince_;
}

bool
ThreadPool::runOneHighPriorityTask()
{
    std::function<void()> task;
    {
        MutexLock lock(mutex_);
        if (highQueue_.empty())
            return false;
        task = std::move(highQueue_.front());
        highQueue_.pop_front();
        highQueued_.fetch_sub(1, std::memory_order_release);
        running_++;
    }
    // Restored on return: the donor may itself be a High task.
    const ThreadPool *donor = std::exchange(tlsHighTaskPool, this);
    task();
    tlsHighTaskPool = donor;
    {
        MutexLock lock(mutex_);
        running_--;
        if (highQueue_.empty() && queue_.empty() && running_ == 0) {
            idleSince_ = std::chrono::steady_clock::now();
            idle_.notifyAll();
        }
    }
    return true;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            MutexLock lock(mutex_);
            while (!stopping_ && highQueue_.empty() && queue_.empty())
                wake_.wait(lock);
            if (highQueue_.empty() && queue_.empty())
                return; // stopping_ with drained queues.
            tlsHighTaskPool = highQueue_.empty() ? nullptr : this;
            if (!highQueue_.empty()) {
                task = std::move(highQueue_.front());
                highQueue_.pop_front();
                highQueued_.fetch_sub(1, std::memory_order_release);
            } else {
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            running_++;
        }
        task();
        {
            MutexLock lock(mutex_);
            running_--;
            if (highQueue_.empty() && queue_.empty() && running_ == 0) {
                idleSince_ = std::chrono::steady_clock::now();
                idle_.notifyAll();
            }
        }
    }
}

namespace {

/** Shared state of one parallelFor call (late helpers outlive it). */
struct ForState
{
    std::atomic<std::size_t> next{0}; ///< Next unclaimed index.
    Mutex mutex{lockrank::kTaskState, "parallel-for"};
    CondVar done;
    /** Helpers inside their claim loop: each counts itself before its
     *  first claim and leaves after its last body returned. */
    std::size_t claimers AM_GUARDED_BY(mutex) = 0;
};

} // namespace

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (n == 1) {
        body(0);
        return;
    }

    // One shared cursor; every participant pulls the next index until
    // the range is exhausted. The caller claims index 0 before any
    // helper is queued, so it always works on the range (woken helpers
    // can otherwise drain a short range before the caller runs), and
    // it never waits for a helper that is still queued, so the range
    // completes even when every worker is busy — including when the
    // caller is itself a task of this pool. A High task's helpers are
    // High too, so they do not wait behind background work; Normal
    // helpers step aside for queued High work before each claim, and
    // the caller finishes whatever they leave.
    const bool high = tlsHighTaskPool == this;
    auto state = std::make_shared<ForState>();
    state->next.store(1, std::memory_order_relaxed);
    const auto *fn = &body;
    std::size_t helpers = std::min<std::size_t>(workers_.size(), n - 1);
    for (std::size_t h = 0; h < helpers; h++) {
        submit([this, state, fn, n, high] {
            {
                MutexLock lock(state->mutex);
                state->claimers++;
            }
            while (high || !hasHighPriorityWork()) {
                std::size_t i =
                    state->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    break;
                (*fn)(i);
            }
            MutexLock lock(state->mutex);
            if (--state->claimers == 0)
                state->done.notifyAll();
        }, high ? TaskPriority::High : TaskPriority::Normal);
    }
    body(0);
    for (;;) {
        std::size_t i = state->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n)
            break;
        body(i);
    }

    // The cursor is exhausted. A helper that counts itself after this
    // lock claims past the end (the lock orders its claim after ours),
    // so once the count reads zero no body is running or about to run
    // and the caller's body reference may die.
    MutexLock lock(state->mutex);
    while (state->claimers != 0)
        state->done.wait(lock);
}

} // namespace base
} // namespace aftermath
