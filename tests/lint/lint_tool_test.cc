// In-process tests for comma-lint (tools/lint, docs/static-analysis.md).
//
// The fixture corpus under tests/lint/testdata is a miniature src/ tree with
// one deliberately-bad file per rule plus a clean file; the suite asserts
// the exact clang-style diagnostics, the NOLINT contract (a bare NOLINT
// does not silence comma-lint), the --fix rewrites against golden files,
// and the baseline round-trip. The real tree run never sees the corpus:
// the runner skips directories named `testdata`.
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tools/lint/index/symbol_index.h"
#include "tools/lint/runner.h"
#include "tools/lint/rules.h"
#include "tools/lint/sarif.h"
#include "tools/lint/scan_pool.h"
#include "tools/lint/source.h"

namespace comma::lint {
namespace {

namespace fs = std::filesystem;

std::string Testdata() { return COMMA_LINT_TESTDATA; }

std::string ReadFile(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

LintResult RunOver(const std::string& root, LintOptions opts = {}) {
  opts.root = root;
  if (opts.paths.empty()) {
    opts.paths = {"src"};  // The corpus has no tests/ subtree.
  }
  LintResult result;
  std::string error;
  EXPECT_TRUE(RunLint(opts, &result, &error)) << error;
  return result;
}

std::vector<std::string> Rendered(const Diagnostics& diags) {
  std::vector<std::string> out;
  for (const Diagnostic& d : diags) {
    out.push_back(d.Render());
  }
  return out;
}

// The full corpus, every rule, exact file:line:col and message.
TEST(CommaLint, FixtureCorpusExactDiagnostics) {
  const LintResult result = RunOver(Testdata());
  const std::vector<std::string> expected = {
      "src/filters/bad_filter.cc:12:7: error: filter class 'DeafFilter' overrides neither In() "
      "nor Out(); a pool filter must declare its pass direction [comma-filter-contract]",
      "src/filters/bad_filter.cc:18:22: error: filter registered as 'mis-named' but class "
      "'MisnamedFilter' constructs Filter(\"misnamed\"); by-name lookup (FindFilterOnKey, "
      "report) would miss it [comma-filter-contract]",
      "src/filters/bad_filter.cc:20:22: error: filter 'ghost' registers class 'GhostFilter' but "
      "no such class is defined under src/filters [comma-filter-contract]",
      "src/net/bad_buffer.cc:19:3: error: field 'tail_' retains a pointer into 'pkt's payload; "
      "the buffer can be reallocated or requeued after this call returns [comma-buffer-lifetime]",
      "src/net/bad_buffer.cc:26:10: error: 'head' points into 'pkt's payload (taken at line 24) "
      "but 'pkt' was set_payload()'d at line 25; the buffer may have been reallocated or handed "
      "away [comma-buffer-lifetime]",
      "src/net/bad_buffer.cc:33:7: error: 'head' points into 'pkt's payload (taken at line 31) "
      "but 'pkt' was std::move()d away at line 32; the buffer may have been reallocated or "
      "handed away [comma-buffer-lifetime]",
      "src/net/bad_global.cc:10:10: error: namespace-scope variable 'packets_seen' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:11:25: error: namespace-scope variable 'scratch_pool' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:12:18: error: namespace-scope variable 'depth' is mutable state "
      "shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:13:13: error: namespace-scope variable 'mode_name' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:14:23: error: namespace-scope variable 'next_id' is mutable state "
      "shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:17:5: error: namespace-scope variable 'hidden_counter' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:23:14: error: static data member 'instances' is mutable state "
      "shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:29:29: error: static data member 'label_' is mutable state shared "
      "by every simulator worker and kept across Simulator::Reset; hold it in a per-simulation "
      "object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:34:12: error: static data member 'instances' is mutable state "
      "shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_global.cc:37:5: error: namespace-scope variable 'gauge_resets' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/net/bad_restricted.cc:4:10: error: forbidden include of "
      "\"src/obs/metric_registry.h\": only the allowlisted headers of src/obs may be included "
      "from src/net [comma-include-layering]",
      "src/obs/bad_metric.cc:7:24: error: metric name \"SP.packets\" is outside the EEM-bridged "
      "namespace ^(sp|ttsf|tcp|eem|trace|mip|sim|http|dns).[a-z0-9_.]+$ and would be unwatchable "
      "from Kati [comma-metric-name-style]",
      "src/obs/bad_metric.cc:8:22: error: metric name \"kati.decision_loops\" is outside the "
      "EEM-bridged namespace ^(sp|ttsf|tcp|eem|trace|mip|sim|http|dns).[a-z0-9_.]+$ and would be "
      "unwatchable from Kati [comma-metric-name-style]",
      "src/obs/bad_metric.cc:9:26: error: metric name \"eem.Handoff.Latency\" is outside the "
      "EEM-bridged namespace ^(sp|ttsf|tcp|eem|trace|mip|sim|http|dns).[a-z0-9_.]+$ and would be "
      "unwatchable from Kati [comma-metric-name-style]",
      "src/obs/bad_metric_dup.cc:17:22: error: metric 'sp.proxy.rebinds' is registered as a "
      "gauge here but as a counter in src/obs/bad_metric_dup.cc:11; the registry interns per "
      "family, so this silently forks the metric [comma-metric-consistency]",
      "src/obs/bad_metric_dup.cc:19:33: error: metric 'sp.proxy.queue_depth' has a second "
      "Register*Source site; source registrations replace, so this one silently wins over the "
      "earlier site [comma-metric-consistency]",
      "src/obs/bad_metric_dup.cc:23:26: error: watch example references metric "
      "'sp.proxy.ghost_metric', which no src/ registration site interns (orphan) "
      "[comma-metric-consistency]",
      "src/obs/bad_mutex.cc:12:14: error: mutex 'mu_' in class 'SilentRegistry' guards nothing; "
      "annotate the members it protects with COMMA_GUARDED_BY(mu_) "
      "(src/util/thread_annotations.h) [comma-mutex-annotation]",
      "src/obs/bad_mutex.cc:13:7: error: field 'hits_locked_' in class 'SilentRegistry' claims "
      "lock-protected state by its *_locked_ name but carries no COMMA_GUARDED_BY annotation "
      "[comma-mutex-annotation]",
      "src/proxy/bad_blob.cc:41:14: error: SkewWidth checkpoint blob desync at step 2: import "
      "reads u32 at loop depth 0 but export writes u16 at loop depth 0 "
      "[comma-checkpoint-blob-symmetry]",
      "src/proxy/bad_blob.cc:54:15: error: SkewMagic::ImportState expects magic kSkewMagicOld "
      "but ExportState writes kSkewMagicNew [comma-checkpoint-blob-symmetry]",
      "src/proxy/bad_blob.cc:67:15: error: SkewVersion::ImportState checks version "
      "kSkewVerV1Version but ExportState writes kSkewVerV2Version "
      "[comma-checkpoint-blob-symmetry]",
      "src/proxy/bad_blob.cc:86:22: error: SkewLoop checkpoint blob desync at step 3: import "
      "reads u64 at loop depth 0 but export writes u64 at loop depth 1 "
      "[comma-checkpoint-blob-symmetry]",
      "src/proxy/bad_blob.cc:98:16: error: SkewTail::ImportState stops after 2 field(s) but "
      "ExportState also writes u32 at step 3 [comma-checkpoint-blob-symmetry]",
      "src/proxy/bad_blob.cc:105:14: error: Orphan::ExportState serializes a checkpoint blob "
      "but the ImportState counterpart is missing [comma-checkpoint-blob-symmetry]",
      "src/proxy/bad_cast.cc:8:10: error: reinterpret_cast outside src/util/bytes.*; route "
      "byte/text bridging through comma::util::AsBytePtr/AsCharPtr [comma-bytes-raw-cast]",
      "src/proxy/bad_cast.cc:12:10: error: reinterpret_cast outside src/util/bytes.*; route "
      "byte/text bridging through comma::util::AsBytePtr/AsCharPtr [comma-bytes-raw-cast]",
      "src/proxy/bad_cast.cc:16:3: error: raw memcpy on a wire buffer; use "
      "util::ByteReader/ByteWriter or the util::bytes copy helpers [comma-bytes-raw-cast]",
      "src/proxy/bad_dcheck.cc:6:16: error: '--' inside COMMA_DCHECK mutates state the release "
      "build never executes; hoist the side effect out of the check [comma-check-side-effect]",
      "src/proxy/bad_guarded.cc:34:3: error: field 'flushed_' is guarded by 'ledger_mu_' "
      "(COMMA_GUARDED_BY) but the lock is not held on every path to this access "
      "[comma-guarded-field-flow]",
      "src/proxy/bad_guarded.cc:47:3: error: field 'flushed_' is guarded by 'ledger_mu_' "
      "(COMMA_GUARDED_BY) but the lock is not held on every path to this access "
      "[comma-guarded-field-flow]",
      "src/proxy/bad_guarded.cc:52:10: error: field 'posted_' is guarded by 'ledger_mu_' "
      "(COMMA_GUARDED_BY) but the lock is not held on every path to this access "
      "[comma-guarded-field-flow]",
      "src/proxy/bad_lock_order.cc:9:12: error: namespace-scope variable 'table_mu_' is mutable"
      " state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/proxy/bad_lock_order.cc:10:12: error: namespace-scope variable 'row_mu_' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/proxy/bad_lock_order.cc:11:12: error: namespace-scope variable 'rogue_mu_' is "
      "mutable state shared by every simulator worker and kept across Simulator::Reset; hold it"
      " in a per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/proxy/bad_lock_order.cc:15:37: error: acquires 'table_mu_' (rank 10) while 'row_mu_' "
      "(rank 20) is held; the DESIGN.md lock hierarchy orders acquisitions by increasing rank "
      "[comma-lock-order]",
      "src/proxy/bad_lock_order.cc:19:37: error: acquires 'rogue_mu_', which is not in the "
      "DESIGN.md lock-hierarchy table; every lock must be ranked before it can be taken "
      "[comma-lock-order]",
      "src/proxy/bad_lock_order.cc:22:54: error: declared to acquire 'table_mu_' (rank 10) "
      "while requiring 'row_mu_' (rank 20); the DESIGN.md lock hierarchy orders acquisitions "
      "by increasing rank [comma-lock-order]",
      "src/proxy/bad_nolint.cc:5:5: error: namespace-scope variable 'grandfathered' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/proxy/bad_nolint.cc:5:28: error: comma-lint suppression is missing its reason; write "
      "`NOLINT(<rule>): <why this site is exempt>` [comma-nolint-reason]",
      "src/proxy/bad_nolint.cc:6:5: error: namespace-scope variable 'justified' is mutable "
      "state shared by every simulator worker and kept across Simulator::Reset; hold it in a "
      "per-simulation object or make it const [comma-nondeterminism-ban]",
      "src/reassembly/bad_http.cc:9:19: error: raw '<' on TCP sequence values 'frontier' and "
      "'seg_seq' breaks at the 2^32 wrap; use comma::tcp::SeqLt [comma-seq-raw-compare]",
      "src/reassembly/bad_http.cc:13:18: error: raw '-' on TCP sequence values 'seg_end' and "
      "'frontier' breaks at the 2^32 wrap; use comma::tcp::SeqDiff [comma-seq-raw-compare]",
      "src/reassembly/bad_http.cc:17:3: error: COMMA_DCHECK_LT on TCP sequence values 'frontier' "
      "and 'fin_seq' breaks at the 2^32 wrap; assert comma::tcp::SeqLt(...) instead "
      "[comma-seq-raw-compare]",
      "src/sim/bad_nondet.cc:10:31: error: 'std::random_device' taps OS entropy and breaks "
      "replay; seed a sim::Random from the scenario config [comma-nondeterminism-ban]",
      "src/sim/bad_nondet.cc:11:28: error: 'rand()' draws from the unseeded global RNG; draw "
      "from the scenario's seeded sim::Random instead [comma-nondeterminism-ban]",
      "src/sim/bad_nondet.cc:12:35: error: wall-clock read via std::chrono::steady_clock in "
      "deterministic code; event time is sim::Simulator::Now() [comma-nondeterminism-ban]",
      "src/sim/bad_nondet.cc:13:23: error: wall-clock call 'time()' in deterministic code; "
      "event time is sim::Simulator::Now() [comma-nondeterminism-ban]",
      "src/sim/bad_nondet.cc:14:34: error: 'getenv()' makes behaviour host-dependent; thread "
      "configuration through the scenario/config structs [comma-nondeterminism-ban]",
      "src/sim/bad_nondet.cc:15:6: error: pointer-keyed std::unordered_map iterates in address "
      "order, which varies run to run; key by a stable id or use an ordered container "
      "[comma-nondeterminism-ban]",
      "src/sim/bad_shard.cc:15:6: error: pointer-keyed std::unordered_map iterates in address "
      "order, which varies run to run; key by a stable id or use an ordered container "
      "[comma-nondeterminism-ban]",
      "src/sim/bad_shard.cc:16:6: error: pointer-keyed std::unordered_set iterates in address "
      "order, which varies run to run; key by a stable id or use an ordered container "
      "[comma-nondeterminism-ban]",
      "src/tcp/bad_include.cc:4:10: error: forbidden include of \"src/filters/ttsf_filter.h\": "
      "src/tcp sits below src/filters in the DESIGN.md layer DAG [comma-include-layering]",
      "src/tcp/bad_include.cc:5:10: error: forbidden include of \"src/obs/metric_registry.h\": "
      "src/tcp sits below src/obs in the DESIGN.md layer DAG [comma-include-layering]",
      "src/tcp/bad_seq.cc:7:18: error: raw '<' on TCP sequence values 'snd_una' and 'snd_nxt' "
      "breaks at the 2^32 wrap; use comma::tcp::SeqLt [comma-seq-raw-compare]",
      "src/tcp/bad_seq.cc:11:18: error: raw '-' on TCP sequence values 'end_seq' and 'rcv_nxt' "
      "breaks at the 2^32 wrap; use comma::tcp::SeqDiff [comma-seq-raw-compare]",
      "src/tcp/bad_seq.cc:19:17: error: raw '>' on TCP sequence values 'seq_lo' and 'seq_hi' "
      "breaks at the 2^32 wrap; use comma::tcp::SeqGt [comma-seq-raw-compare]",
      "src/tcp/bad_seq.cc:23:3: error: COMMA_DCHECK_LT on TCP sequence values 'pkt_seq' and "
      "'pkt_ack' breaks at the 2^32 wrap; assert comma::tcp::SeqLt(...) instead "
      "[comma-seq-raw-compare]",
  };
  EXPECT_EQ(Rendered(result.findings), expected);
  EXPECT_TRUE(result.baselined.empty());
}

// The mutable-global half of nondeterminism-ban against its golden file:
// every flagged shape in the fixture, and none of its constants, types and
// functions.
TEST(CommaLint, MutableGlobalsMatchGoldenFile) {
  LintOptions opts;
  opts.rules = {"nondeterminism-ban"};
  opts.paths = {"src/net/bad_global.cc"};
  std::string rendered;
  for (const std::string& line : Rendered(RunOver(Testdata(), opts).findings)) {
    rendered += line + "\n";
  }
  EXPECT_EQ(rendered, ReadFile(fs::path(Testdata()) / "golden" / "bad_global.cc.golden"));
}

// The clean fixture — sanctioned idioms only — contributes nothing.
TEST(CommaLint, CleanFixtureHasNoFindings) {
  const LintResult result = RunOver(Testdata());
  for (const Diagnostic& d : result.findings) {
    EXPECT_NE(d.file, "src/proxy/clean.cc") << d.Render();
  }
}

// --rule restricts the run to the named rules.
TEST(CommaLint, RuleSelectionRestrictsFindings) {
  LintOptions opts;
  opts.rules = {"seq-raw-compare"};
  const LintResult result = RunOver(Testdata(), opts);
  ASSERT_EQ(result.findings.size(), 7u);  // 4 in bad_seq.cc + 3 in bad_http.cc.
  for (const Diagnostic& d : result.findings) {
    EXPECT_EQ(d.rule, "seq-raw-compare");
  }

  LintOptions bad;
  bad.root = Testdata();
  bad.paths = {"src"};
  bad.rules = {"no-such-rule"};
  LintResult ignored;
  std::string error;
  EXPECT_FALSE(RunLint(bad, &ignored, &error));
  EXPECT_NE(error.find("unknown rule name: no-such-rule"), std::string::npos) << error;
  // A typo'd --rule prints the whole catalog so the user can correct it
  // without a second command.
  EXPECT_NE(error.find("available rules:"), std::string::npos) << error;
  EXPECT_NE(error.find("comma-seq-raw-compare"), std::string::npos) << error;
  EXPECT_NE(error.find("comma-buffer-lifetime"), std::string::npos) << error;
}

// The NOLINT contract: the rule must be named; a bare NOLINT (clang-tidy
// habit) does not silence comma-lint. Both spellings of the rule work, and
// NOLINTNEXTLINE anchors to the following line.
TEST(CommaLint, SuppressionRequiresExplicitRuleName) {
  const auto findings_in = [](const std::string& body) {
    Project project;
    project.files.push_back(MakeLintFile("src/tcp/fixture.cc", body));
    Diagnostics out;
    MakeSeqRawCompareRule()->Check(project, &out);
    return out.size();
  };
  const std::string stmt = "bool F(uint32_t seq_lo, uint32_t seq_hi) { return seq_lo < seq_hi; }";
  EXPECT_EQ(findings_in(stmt + "\n"), 1u);
  EXPECT_EQ(findings_in(stmt + "  // NOLINT\n"), 1u);
  EXPECT_EQ(findings_in(stmt + "  // NOLINT(comma-seq-raw-compare)\n"), 0u);
  EXPECT_EQ(findings_in(stmt + "  // NOLINT(seq-raw-compare)\n"), 0u);
  EXPECT_EQ(findings_in("// NOLINTNEXTLINE(comma-seq-raw-compare)\n" + stmt + "\n"), 0u);
  EXPECT_EQ(findings_in(stmt + "  // NOLINT(comma-bytes-raw-cast)\n"), 1u);  // Wrong rule.
}

// --fix rewrites the mechanical rules to the seq.h / bytes.h helpers and
// inserts the required include; suppressed sites and non-fixable findings
// (memcpy, macro comparisons) are left alone.
TEST(CommaLint, FixRewritesMatchGoldenFiles) {
  const fs::path tmp = fs::path(::testing::TempDir()) / "comma_lint_fix";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  fs::copy(fs::path(Testdata()) / "src", tmp / "src", fs::copy_options::recursive);

  LintOptions opts;
  opts.apply_fixes = true;
  const LintResult result = RunOver(tmp.string(), opts);
  EXPECT_EQ(result.fixes_applied, 7);  // 3 in bad_seq.cc + 2 in bad_cast.cc + 2 in bad_http.cc.
  const std::vector<std::string> expected_fixed = {"src/proxy/bad_cast.cc",
                                                   "src/reassembly/bad_http.cc",
                                                   "src/tcp/bad_seq.cc"};
  EXPECT_EQ(result.fixed_files, expected_fixed);

  const fs::path golden = fs::path(Testdata()) / "golden";
  EXPECT_EQ(ReadFile(tmp / "src/tcp/bad_seq.cc"), ReadFile(golden / "bad_seq.cc.golden"));
  EXPECT_EQ(ReadFile(tmp / "src/proxy/bad_cast.cc"), ReadFile(golden / "bad_cast.cc.golden"));
  EXPECT_EQ(ReadFile(tmp / "src/reassembly/bad_http.cc"),
            ReadFile(golden / "bad_http.cc.golden"));
  // Non-fixable rules leave their files untouched.
  EXPECT_EQ(ReadFile(tmp / "src/proxy/bad_dcheck.cc"),
            ReadFile(fs::path(Testdata()) / "src/proxy/bad_dcheck.cc"));

  // The rewritten tree keeps only the non-mechanical findings.
  const LintResult refixed = RunOver(tmp.string());
  for (const Diagnostic& d : refixed.findings) {
    EXPECT_TRUE(d.rule != "seq-raw-compare" || d.file != "src/tcp/bad_seq.cc" ||
                d.message.find("COMMA_DCHECK_LT") != std::string::npos)
        << d.Render();
  }
  fs::remove_all(tmp);
}

// --write-baseline grandfathers the current findings; a second run reports
// them as baselined, not new.
TEST(CommaLint, BaselineRoundTrip) {
  const fs::path baseline = fs::path(::testing::TempDir()) / "comma_lint_baseline.txt";
  fs::remove(baseline);

  LintOptions first;
  first.baseline_path = baseline.string();
  first.write_baseline = true;
  const LintResult before = RunOver(Testdata(), first);
  EXPECT_FALSE(before.findings.empty());
  EXPECT_TRUE(before.baselined.empty());

  LintOptions second;
  second.baseline_path = baseline.string();
  const LintResult after = RunOver(Testdata(), second);
  EXPECT_TRUE(after.findings.empty())
      << (after.findings.empty() ? "" : after.findings.front().Render());
  EXPECT_EQ(after.baselined.size(), before.findings.size());
  fs::remove(baseline);
}

// The catalog: ten rules, the two mechanical ones marked fixable, and the
// instantiation-free name list (BuiltinRuleNames) in lockstep.
TEST(CommaLint, BuiltinRuleCatalog) {
  const std::vector<RulePtr> rules = BuiltinRules();
  std::vector<std::string> names;
  std::vector<std::string> fixable;
  for (const RulePtr& r : rules) {
    names.emplace_back(r->name());
    EXPECT_FALSE(r->description().empty());
    if (r->fixable()) {
      fixable.emplace_back(r->name());
    }
  }
  const std::vector<std::string> expected_names = {
      "seq-raw-compare",    "bytes-raw-cast",
      "check-side-effect",  "metric-name-style",
      "include-layering",   "filter-contract",
      "mutex-annotation",   "nondeterminism-ban",
      "lock-order",         "nolint-reason",
      "checkpoint-blob-symmetry", "guarded-field-flow",
      "metric-consistency", "buffer-lifetime",
  };
  EXPECT_EQ(names, expected_names);
  EXPECT_EQ(fixable, (std::vector<std::string>{"seq-raw-compare", "bytes-raw-cast"}));
  std::vector<std::string> listed;
  for (std::string_view n : BuiltinRuleNames()) {
    listed.emplace_back(n);
  }
  EXPECT_EQ(listed, expected_names);
}

// A scan fanned out over worker threads produces byte-for-byte the same
// result as the serial scan: files land in fixed slots, rules run after
// the barrier.
TEST(CommaLint, ParallelScanMatchesSerial) {
  const LintResult serial = RunOver(Testdata());
  LintOptions opts;
  opts.jobs = 4;
  const LintResult parallel = RunOver(Testdata(), opts);
  EXPECT_EQ(Rendered(parallel.findings), Rendered(serial.findings));
  EXPECT_EQ(parallel.files_scanned, serial.files_scanned);

  // Oversubscribed: more workers than files. Extra workers find the cursor
  // exhausted and exit; the two-pass runner (index, then rules) is
  // unaffected because both passes run after the load barrier.
  LintOptions many;
  many.jobs = 64;
  const LintResult oversub = RunOver(Testdata(), many);
  EXPECT_EQ(Rendered(oversub.findings), Rendered(serial.findings));
}

// ScanPool contract at the edges: an empty work list, more workers than
// files, and an unreadable file (reported by name, run fails cleanly).
TEST(CommaLint, ScanPoolEdgeCases) {
  const fs::path root = Testdata();
  std::vector<LintFile> out;
  std::string error;
  EXPECT_TRUE(ScanPool::LoadAll(root, {}, 8, &out, &error)) << error;
  EXPECT_TRUE(out.empty());

  const std::vector<std::string> two = {"src/tcp/bad_seq.cc", "src/proxy/clean.cc"};
  EXPECT_TRUE(ScanPool::LoadAll(root, two, 64, &out, &error)) << error;
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].path, "src/tcp/bad_seq.cc");  // Fixed slots, input order.
  EXPECT_EQ(out[1].path, "src/proxy/clean.cc");
  EXPECT_FALSE(out[0].tokens.empty());
  EXPECT_FALSE(out[1].content.empty());

  const std::vector<std::string> missing = {"src/tcp/bad_seq.cc", "src/no_such_file.cc"};
  EXPECT_FALSE(ScanPool::LoadAll(root, missing, 4, &out, &error));
  EXPECT_NE(error.find("src/no_such_file.cc"), std::string::npos) << error;
}

// mutex-annotation in isolation: an uncited mutex is a finding, citing it
// from any COMMA_GUARDED_BY member clears it.
TEST(CommaLint, MutexAnnotationCitedMutexIsClean) {
  const auto findings_in = [](const std::string& body) {
    Project project;
    project.files.push_back(MakeLintFile("src/obs/fixture.h", body));
    Diagnostics out;
    MakeMutexAnnotationRule()->Check(project, &out);
    return out.size();
  };
  const std::string unguarded =
      "class R {\n"
      "  std::mutex mu_;\n"
      "  int hits_ = 0;\n"
      "};\n";
  const std::string guarded =
      "class R {\n"
      "  std::mutex mu_;\n"
      "  int hits_ COMMA_GUARDED_BY(mu_) = 0;\n"
      "};\n";
  EXPECT_EQ(findings_in(unguarded), 1u);
  EXPECT_EQ(findings_in(guarded), 0u);
}

// The nondeterminism allowlist: a table entry (file, api) sanctions that
// one API in that one file, like an include-layering edge; "*" sanctions
// the whole file. Other files stay banned.
TEST(CommaLint, NondeterminismAllowlistIsPerFileAndApi) {
  const auto findings_with = [](std::vector<NondetAllowance> allow) {
    Project project;
    project.files.push_back(
        MakeLintFile("src/sim/entropy.cc", "unsigned S() { return std::random_device{}(); }\n"));
    project.files.push_back(
        MakeLintFile("src/sim/other.cc", "unsigned T() { return std::random_device{}(); }\n"));
    Diagnostics out;
    MakeNondeterminismRule(std::move(allow))->Check(project, &out);
    return out.size();
  };
  EXPECT_EQ(findings_with({}), 2u);
  EXPECT_EQ(findings_with({{"src/sim/entropy.cc", "random_device"}}), 1u);
  EXPECT_EQ(findings_with({{"src/sim/entropy.cc", "*"}}), 1u);
  EXPECT_EQ(findings_with({{"src/sim/entropy.cc", "rand"}}), 2u);  // Wrong API.
}

// The lock-order hierarchy round-trips from the DESIGN.md table: ranks
// declared there decide which nestings are findings, and a lock missing
// from the table cannot be taken.
TEST(CommaLint, LockOrderRoundTripsFromDesignTable) {
  const std::string design =
      "# Fixture\n"
      "### Lock hierarchy\n"
      "\n"
      "| Rank | Lock | Owner |\n"
      "|------|------|-------|\n"
      "| 10 | `outer_mu_` | A |\n"
      "| 20 | `inner_mu_` | B |\n";
  const auto findings_in = [&](const std::string& body) {
    Project project;
    project.files.push_back(MakeLintFile("src/obs/fixture.cc", body));
    project.design = MakeLintFile("DESIGN.md", design);
    project.has_design = true;
    Diagnostics out;
    MakeLockOrderRule()->Check(project, &out);
    return out;
  };
  const std::string good =
      "void F() {\n"
      "  std::lock_guard<std::mutex> a(outer_mu_);\n"
      "  std::lock_guard<std::mutex> b(inner_mu_);\n"
      "}\n";
  const std::string inverted =
      "void F() {\n"
      "  std::lock_guard<std::mutex> a(inner_mu_);\n"
      "  std::lock_guard<std::mutex> b(outer_mu_);\n"
      "}\n";
  const std::string unranked = "void F() { std::lock_guard<std::mutex> a(stray_mu_); }\n";
  EXPECT_TRUE(findings_in(good).empty());
  ASSERT_EQ(findings_in(inverted).size(), 1u);
  EXPECT_NE(findings_in(inverted)[0].message.find("rank 10"), std::string::npos);
  ASSERT_EQ(findings_in(unranked).size(), 1u);
  EXPECT_NE(findings_in(unranked)[0].message.find("not in the DESIGN.md"), std::string::npos);

  // Without a hierarchy table the rule has nothing to enforce.
  Project no_design;
  no_design.files.push_back(MakeLintFile("src/obs/fixture.cc", inverted));
  Diagnostics out;
  MakeLockOrderRule()->Check(no_design, &out);
  EXPECT_TRUE(out.empty());
}

// The suppression-reason contract: a comma-rule NOLINT without a trailing
// `: reason` is a finding; reasons and third-party suppressions are not.
TEST(CommaLint, NolintReasonRequiredOnCommaSuppressions) {
  const auto findings_in = [](const std::string& body) {
    Project project;
    project.files.push_back(MakeLintFile("src/tcp/fixture.cc", body));
    Diagnostics out;
    MakeNolintReasonRule()->Check(project, &out);
    return out.size();
  };
  EXPECT_EQ(findings_in("int x;  // NOLINT(comma-seq-raw-compare)\n"), 1u);
  EXPECT_EQ(findings_in("int x;  // NOLINT(seq-raw-compare)\n"), 1u);
  EXPECT_EQ(findings_in("// NOLINTNEXTLINE(comma-seq-raw-compare)\nint x;\n"), 1u);
  EXPECT_EQ(findings_in("int x;  // NOLINT(comma-seq-raw-compare): event seq, not TCP\n"), 0u);
  EXPECT_EQ(findings_in("// NOLINTNEXTLINE(comma-seq-raw-compare): event seq\nint x;\n"), 0u);
  // Third-party (clang-tidy) suppressions are not comma-lint's business.
  EXPECT_EQ(findings_in("int x;  // NOLINT(cppcoreguidelines-pro-type-reinterpret-cast)\n"), 0u);
  // Bare NOLINT never silences comma-lint, so no reason is demanded either.
  EXPECT_EQ(findings_in("int x;  // NOLINT\n"), 0u);
  // A bare suppression of this very rule does not silence it.
  EXPECT_EQ(findings_in("int x;  // NOLINT(comma-nolint-reason)\n"), 1u);
}

// The declared-type exemption: a uint64_t `seq` (the simulator's event
// tie-breaker) is not a TCP sequence number.
TEST(CommaLint, DeclaredTypeExemptsNonUint32Sequences) {
  Project project;
  project.files.push_back(MakeLintFile(
      "src/sim/fixture.h",
      "struct Ev { uint64_t event_seq; };\n"
      "bool Before(uint64_t event_seq, uint64_t other_seq) { return event_seq < other_seq; }\n"));
  Diagnostics out;
  MakeSeqRawCompareRule()->Check(project, &out);
  EXPECT_TRUE(out.empty()) << out.front().Render();
}

// checkpoint-blob-symmetry over the real tree: desyncing the first read of
// each of the eight checkpoint formats (TTSF, SNOP, TDRP, TCMP, TDEC,
// WSIZ, HRWR, HTYP) is caught and attributed to its class; the pristine
// tree is clean. COMMA_LINT_SRCROOT points at the repository root.
TEST(CommaLint, RealTreeBlobFormatDesyncsAreCaught) {
  const fs::path srcroot = COMMA_LINT_SRCROOT;
  const fs::path tmp = fs::path(::testing::TempDir()) / "comma_lint_blob";
  fs::remove_all(tmp);
  fs::create_directories(tmp / "src");
  fs::copy(srcroot / "src/filters", tmp / "src/filters", fs::copy_options::recursive);

  LintOptions opts;
  opts.rules = {"checkpoint-blob-symmetry"};
  const LintResult pristine = RunOver(tmp.string(), opts);
  EXPECT_TRUE(pristine.findings.empty())
      << (pristine.findings.empty() ? "" : pristine.findings.front().Render());

  // Widen (or wrap) the width of the first ReadUxx in each ImportState.
  const std::vector<std::string> classes = {
      "TtsfFilter",        "SnoopFilter", "TdropFilter",    "TcompressFilter",
      "TdecompressFilter", "WsizeFilter", "HrewriteFilter", "HtypeFilter"};
  const std::map<std::string, std::string> bump = {
      {"8", "16"}, {"16", "32"}, {"32", "64"}, {"64", "8"}};
  int desynced = 0;
  for (const auto& entry : fs::recursive_directory_iterator(tmp / "src/filters")) {
    if (!entry.is_regular_file() || entry.path().extension() != ".cc") {
      continue;
    }
    std::string body = ReadFile(entry.path());
    bool changed = false;
    for (const std::string& cls : classes) {
      const size_t fn = body.find("bool " + cls + "::ImportState");
      if (fn == std::string::npos) {
        continue;
      }
      const size_t read = body.find("ReadU", fn);
      ASSERT_NE(read, std::string::npos) << cls;
      size_t end = read + 5;
      while (end < body.size() && std::isdigit(static_cast<unsigned char>(body[end]))) {
        ++end;
      }
      body.replace(read + 5, end - (read + 5), bump.at(body.substr(read + 5, end - (read + 5))));
      changed = true;
      ++desynced;
    }
    if (changed) {
      std::ofstream rewrite(entry.path(), std::ios::trunc | std::ios::binary);
      rewrite << body;
    }
  }
  ASSERT_EQ(desynced, 8);

  const LintResult skewed = RunOver(tmp.string(), opts);
  EXPECT_EQ(skewed.findings.size(), 8u);
  for (const std::string& cls : classes) {
    bool named = false;
    for (const Diagnostic& d : skewed.findings) {
      named = named || d.message.find(cls) != std::string::npos;
    }
    EXPECT_TRUE(named) << cls << " desync was not reported";
  }
  fs::remove_all(tmp);
}

// The pass-1 index cache: a cold run misses for every file, the warm run
// hits for every file, and the findings are byte-identical.
TEST(CommaLint, IndexCacheWarmRunMatchesCold) {
  const fs::path cache = fs::path(::testing::TempDir()) / "comma_lint_index_cache.bin";
  fs::remove(cache);
  LintOptions opts;
  opts.index_cache_path = cache.string();
  const LintResult cold = RunOver(Testdata(), opts);
  EXPECT_EQ(cold.index_cache_hits, 0);
  EXPECT_EQ(cold.index_cache_misses, cold.files_scanned);
  const LintResult warm = RunOver(Testdata(), opts);
  EXPECT_EQ(warm.index_cache_hits, warm.files_scanned);
  EXPECT_EQ(warm.index_cache_misses, 0);
  EXPECT_EQ(Rendered(warm.findings), Rendered(cold.findings));
  fs::remove(cache);
}

// SARIF output: schema versioned 2.1.0, the full rule catalog (including
// rules with zero findings), one result per finding, escaped messages.
TEST(CommaLint, SarifRenderCarriesCatalogAndFindings) {
  const LintResult result = RunOver(Testdata());
  const std::string sarif = RenderSarif(result);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"comma-lint\""), std::string::npos);
  const auto count = [&sarif](const std::string& needle) {
    size_t n = 0;
    for (size_t at = sarif.find(needle); at != std::string::npos;
         at = sarif.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"id\": \"comma-"), BuiltinRules().size());
  EXPECT_EQ(count("\"ruleId\": "), result.findings.size());
  EXPECT_NE(sarif.find("\"ruleId\": \"comma-checkpoint-blob-symmetry\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": "), std::string::npos);
  // Messages embed double quotes (metric names); they must arrive escaped.
  EXPECT_NE(sarif.find("\\\"SP.packets\\\""), std::string::npos);
}

// --counts-md ordering: one row per active rule, sorted by rule id so the
// table is diffable run to run whatever the catalog order is.
TEST(CommaLint, CountsMarkdownSortsByRuleId) {
  const LintResult result = RunOver(Testdata());
  const std::string md = RenderCountsMarkdown(result);
  std::istringstream in(md);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "| rule | findings | baselined |");
  std::getline(in, line);  // The |---| separator.
  std::vector<std::string> rules;
  while (std::getline(in, line)) {
    const size_t open = line.find("comma-");
    ASSERT_NE(open, std::string::npos) << line;
    rules.push_back(line.substr(open, line.find(' ', open) - open));
  }
  EXPECT_EQ(rules.size(), BuiltinRules().size());
  EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end()));
}

// --prune-baseline: entries for fixed findings are reported stale and then
// dropped; entries still being consumed survive verbatim.
TEST(CommaLint, PruneBaselineDropsStaleEntries) {
  const fs::path tmp = fs::path(::testing::TempDir()) / "comma_lint_prune";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  fs::copy(fs::path(Testdata()) / "src", tmp / "src", fs::copy_options::recursive);
  fs::copy_file(fs::path(Testdata()) / "DESIGN.md", tmp / "DESIGN.md");
  const fs::path baseline = tmp / "baseline.txt";

  LintOptions write;
  write.baseline_path = baseline.string();
  write.write_baseline = true;
  const LintResult before = RunOver(tmp.string(), write);
  ASSERT_FALSE(before.findings.empty());

  // "Fix" one file by deleting it: its baseline entries go stale.
  fs::remove(tmp / "src/tcp/bad_seq.cc");

  LintOptions prune;
  prune.baseline_path = baseline.string();
  prune.prune_baseline = true;
  const LintResult pruned = RunOver(tmp.string(), prune);
  EXPECT_TRUE(pruned.findings.empty());
  EXPECT_EQ(pruned.stale_baseline, 4);  // bad_seq.cc carried four entries.
  EXPECT_EQ(ReadFile(baseline).find("bad_seq"), std::string::npos);

  LintOptions reread;
  reread.baseline_path = baseline.string();
  const LintResult after = RunOver(tmp.string(), reread);
  EXPECT_TRUE(after.findings.empty());
  EXPECT_EQ(after.stale_baseline, 0);
  EXPECT_EQ(after.baselined.size(), before.findings.size() - 4);
  fs::remove_all(tmp);
}

// COMMA_REQUIRES on the in-class declaration seeds the entry lock set, so
// a helper documenting its precondition accesses guarded fields cleanly;
// without the annotation the same body is a finding.
TEST(CommaLint, GuardedFlowHonorsRequiresAnnotation) {
  const auto findings_in = [](const std::string& decl) {
    Project project;
    project.files.push_back(MakeLintFile(
        "src/obs/fixture.cc",
        "class C {\n"
        " public:\n"
        "  void Bump() " + decl + ";\n"
        " private:\n"
        "  std::mutex mu_;\n"
        "  int n_ COMMA_GUARDED_BY(mu_) = 0;\n"
        "};\n"
        "void C::Bump() { n_ += 1; }\n"));
    std::vector<FileIndex> per_file;
    per_file.push_back(IndexFile(project.files.back()));
    project.index = ProjectIndex::Build(per_file);
    Diagnostics out;
    MakeGuardedFlowRule()->Check(project, &out);
    return out.size();
  };
  EXPECT_EQ(findings_in(""), 1u);
  EXPECT_EQ(findings_in("COMMA_REQUIRES(mu_)"), 0u);
}

}  // namespace
}  // namespace comma::lint
