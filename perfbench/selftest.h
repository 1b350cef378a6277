#pragma once

/**
 * @file
 * The self-test of the benchmark's output checks (checks.h): each
 * check is fed a clean input, which it must accept, and deliberately
 * corrupted ones, which it must reject — a flipped checksum, a flipped
 * archDigest, a payload byte flipped in a store segment on disk, a
 * stale crc, broken SimResult invariants, an extra redundant load.
 */

#include <string>

namespace perfbench {

/** Run every case, print one line each, and return 0 when every check
 *  behaved (1 otherwise). Temporary files go under @p work. */
int selfTest(const std::string &work);

} // namespace perfbench
