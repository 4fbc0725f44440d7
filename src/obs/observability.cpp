#include "obs/observability.hpp"

namespace powermove::obs {

std::shared_ptr<Observability>
bundleOrPrivate(std::shared_ptr<Observability> bundle)
{
    if (bundle != nullptr)
        return bundle;
    return std::make_shared<Observability>(
        ObservabilityOptions{LogLevel::Off});
}

PeriodicReporter::PeriodicReporter(std::chrono::milliseconds interval,
                                   std::function<void()> fn)
    : interval_(interval), fn_(std::move(fn))
{
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mutex_);
        for (;;) {
            if (wake_.wait_for(lock, interval_,
                               [this] { return stopping_; }))
                return;
            ++reports_;
            lock.unlock();
            fn_();
            lock.lock();
        }
    });
}

PeriodicReporter::~PeriodicReporter()
{
    bool fire_final = false;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        fire_final = reports_ == 0;
    }
    wake_.notify_all();
    thread_.join();
    if (fire_final) {
        fn_();
        const std::lock_guard<std::mutex> lock(mutex_);
        ++reports_;
    }
}

std::size_t
PeriodicReporter::reports() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return reports_;
}

} // namespace powermove::obs
