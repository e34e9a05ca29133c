// Parallel experiment executor.
//
// Every figure in the paper is a sweep of independent, seeded experiments;
// each run owns its Simulator, transport and per-component RNG streams, so
// runs share no mutable state and can execute concurrently with bit-for-bit
// deterministic results. run_experiments() fans a config vector out over a
// worker pool and returns results in input order — `jobs=8` produces output
// byte-identical to `jobs=1`.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "harness/config.hpp"
#include "harness/experiment.hpp"

namespace esm::harness {

/// Default worker count: hardware_concurrency, min 1.
unsigned default_jobs();

/// Parses "--jobs N" out of `args` (mutating it) for the bench tools,
/// which take no other esm_run flag, with the --jobs row of parse_cli.
/// Returns default_jobs() when absent; sets `error` and returns 0 on a
/// malformed value (0 itself is never a valid result — "--jobs 0" means
/// "auto" and maps to default_jobs()).
unsigned extract_jobs_flag(std::vector<std::string>& args, std::string& error);

/// Runs every config through run_experiment() on a pool of `jobs` worker
/// threads (jobs == 0 → default_jobs()). Results are returned in input
/// order regardless of completion order. If any run throws, the first
/// exception in *input order* is rethrown after all workers finish —
/// matching what a serial loop would have reported.
///
/// `on_done`, when provided, is invoked as each run finishes (arguments:
/// input index, result) from the worker thread that ran it, serialized by
/// an internal mutex — useful for progress reporting. It must not block
/// for long; printing is fine.
std::vector<ExperimentResult> run_experiments(
    const std::vector<ExperimentConfig>& configs, unsigned jobs = 0,
    const std::function<void(std::size_t, const ExperimentResult&)>& on_done =
        {});

}  // namespace esm::harness
