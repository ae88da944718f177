/**
 * @file
 * Command line of the benchmark harness.
 *
 *   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
 *   perfbench --print-digests --workload W [--seed N]
 *
 * --trace 0 measures the end-to-end metrics for S seconds; --trace 1
 * runs the workload once untraced and once traced and reports the
 * per-layer metrics. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Usage errors
 * print the usage text and exit 2.
 */

#ifndef PERFBENCH_CLI_HH
#define PERFBENCH_CLI_HH

namespace perfbench {

/** The whole program; returns the process exit code. */
int perfbenchMain(int argc, char **argv);

} // namespace perfbench

#endif // PERFBENCH_CLI_HH
