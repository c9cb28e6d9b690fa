/**
 * @file
 * Committed expected outputs the benchmark checks every item against.
 * They were recorded from the library at the commit that added the
 * benchmark; a change that alters any of them changes what DCatch
 * reports and must say so.
 */

#ifndef DCATCH_E2EBENCH_EXPECTED_HH
#define DCATCH_E2EBENCH_EXPECTED_HH

#include <string>
#include <vector>

namespace e2e::expected {

/** One benchmark's `run --trigger` classification. */
struct Pipeline
{
    const char *id;
    int reports, harmful, benign, serial;
    const char *digest; ///< reportDigest() of the triggered reports
};

inline const std::vector<Pipeline> kPipeline = {
    {"CA-1011", 3, 1, 1, 1, "2f9c272e055cb924"},
    {"HB-4539", 4, 1, 2, 1, "931af49b8a2483a2"},
    {"HB-4729", 8, 2, 3, 3, "e45f43bb73554190"},
    {"MR-3274", 5, 1, 3, 1, "3615c08f391c189f"},
    {"MR-4637", 5, 2, 2, 1, "75c2015fa7cf83c2"},
    {"ZK-1144", 1, 1, 0, 0, "936e21ca9ec325da"},
    {"ZK-1270", 2, 2, 0, 0, "358018179f5a6d79"},
    {"EL-3891", 6, 3, 1, 2, "7853f1dc1a4fc96e"},
    {"KV-2501", 8, 5, 1, 2, "b7d0e117c75fc21d"},
};

/** Totals over kPipeline. */
inline constexpr int kReports = 42, kHarmful = 18, kBenign = 13,
                     kSerial = 11;

/** One exploration campaign. */
struct Campaign
{
    const char *id;
    int failures;
    std::vector<std::string> signatures; ///< distinct, sorted
};

inline const std::vector<Campaign> kCampaigns = {
    {"ZK-1270", 9,
     {"Completed;FatalLog@zk.leader/fatal;LoopHang@zk.leader/ackloop.exit"}},
    {"KV-2501", 4,
     {"Completed;FatalLog@kv.repl/fatal",
      "Completed;FatalLog@kv.repl/fatal;FatalLog@kv.verify/fatal"}},
    {"HB-4729", 0, {}},
};

/** One trace_analysis trace. */
struct Analysis
{
    const char *name;
    std::size_t records, candidates, kept;
    const char *digest; ///< candidateDigest() of the detected list
};

inline const std::vector<Analysis> kAnalysis = {
    {"MR-3274x256", 10771, 287, 269, "9d486e9222754181"},
    {"HB-4539x32", 694, 2031, 36, "b5819a42d7bdbf53"},
};

} // namespace e2e::expected

#endif // DCATCH_E2EBENCH_EXPECTED_HH
