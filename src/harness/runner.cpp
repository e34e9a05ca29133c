#include "harness/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "harness/cli.hpp"

namespace esm::harness {

unsigned default_jobs() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

unsigned extract_jobs_flag(std::vector<std::string>& args,
                           std::string& error) {
  const auto at = std::find(args.begin(), args.end(), "--jobs");
  if (at == args.end()) return default_jobs();
  // The --jobs row of the flag table parses it, so both say the same.
  const auto end = at + std::min<std::ptrdiff_t>(2, args.end() - at);
  const auto options = parse_cli(std::vector<std::string>(at, end), error);
  if (!options) return 0;
  args.erase(at, end);
  return options->jobs == 0 ? default_jobs() : options->jobs;
}

std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentConfig>& configs, unsigned jobs,
    const std::function<void(std::size_t, const ExperimentResult&)>&
        on_done) {
  std::vector<ExperimentResult> results(configs.size());
  if (configs.empty()) return results;
  if (jobs == 0) jobs = default_jobs();
  if (jobs > configs.size()) jobs = static_cast<unsigned>(configs.size());

  std::vector<std::exception_ptr> errors(configs.size());
  std::atomic<std::size_t> next{0};
  std::mutex done_mutex;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= configs.size()) return;
      try {
        results[i] = run_experiment(configs[i]);
        if (on_done) {
          const std::lock_guard<std::mutex> lock(done_mutex);
          on_done(i, results[i]);
        }
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };

  if (jobs == 1) {
    // Run inline: same code path semantics, no thread overhead, and tools
    // invoked with --jobs 1 behave exactly like the historical serial loop.
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned t = 0; t < jobs; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Rethrow the first failure in input order, as a serial loop would.
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace esm::harness
