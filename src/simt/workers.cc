#include "simt/workers.h"

#include <algorithm>
#include <cstdlib>

namespace mptopk::simt {
namespace {

// Sanity bound on pool size; worker counts above the grid size are clamped
// by the launcher anyway.
constexpr int kMaxWorkers = 256;

}  // namespace

BlockWorkers& BlockWorkers::Instance() {
  static BlockWorkers pool;
  return pool;
}

BlockWorkers::~BlockWorkers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void BlockWorkers::EnsureThreads(int count) {
  count = std::min(count, kMaxWorkers);
  while (static_cast<int>(threads_.size()) < count) {
    int idx = static_cast<int>(threads_.size());
    threads_.emplace_back([this, idx] { WorkerMain(idx); });
  }
}

void BlockWorkers::Run(int workers, int grid_dim,
                       const std::function<void(int, int)>& fn) {
  std::lock_guard<std::mutex> launch_lk(launch_mu_);
  workers = std::min(workers, grid_dim);
  if (workers <= 1) {
    for (int b = 0; b < grid_dim; ++b) fn(0, b);
    return;
  }
  EnsureThreads(workers - 1);
  {
    std::lock_guard<std::mutex> lk(mu_);
    task_fn_ = &fn;
    task_workers_ = workers;
    task_grid_ = grid_dim;
    pending_ = workers - 1;
    ++gen_;
  }
  cv_work_.notify_all();
  // The caller is worker 0.
  for (int b = 0; b < grid_dim; b += workers) fn(0, b);
  std::unique_lock<std::mutex> lk(mu_);
  cv_done_.wait(lk, [&] { return pending_ == 0; });
  task_fn_ = nullptr;
}

void BlockWorkers::WorkerMain(int idx) {
  const int w = idx + 1;  // pool thread idx serves worker id idx+1
  uint64_t seen_gen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    cv_work_.wait(lk, [&] {
      return stop_ || (gen_ != seen_gen && w < task_workers_);
    });
    if (stop_) return;
    seen_gen = gen_;
    const std::function<void(int, int)>* fn = task_fn_;
    const int workers = task_workers_;
    const int grid = task_grid_;
    lk.unlock();
    for (int b = w; b < grid; b += workers) (*fn)(w, b);
    lk.lock();
    if (--pending_ == 0) cv_done_.notify_all();
  }
}

int DefaultHostWorkers() {
  if (const char* env = std::getenv("MPTOPK_WORKERS")) {
    int e = std::atoi(env);
    if (e >= 1) return std::min(e, kMaxWorkers);
  }
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  return static_cast<int>(std::min(hw, 8u));
}

}  // namespace mptopk::simt
