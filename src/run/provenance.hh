/**
 * @file
 * Self-describing artifacts: git revision + effective-command echo.
 *
 * Every file a harness writes (CSV, BENCH json, repro artifact,
 * journal) and every tool's stdout should carry enough provenance to
 * re-run it: the binary's git revision and the effective command
 * line. sweep_cli pioneered the '#'-comment header; this header
 * centralizes the pieces so mcube_report and fuzz_campaign emit the
 * same shape.
 */

#ifndef MCUBE_RUN_PROVENANCE_HH
#define MCUBE_RUN_PROVENANCE_HH

#include <string>

namespace mcube::run
{

/** Best-effort HEAD revision (cached); "unknown" outside git. */
const std::string &gitRevision();

/** One '#'-comment provenance line: tool, revision, argv echo. */
std::string provenanceHeader(const std::string &tool, int argc,
                             char **argv);

} // namespace mcube::run

#endif // MCUBE_RUN_PROVENANCE_HH
