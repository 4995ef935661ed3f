#include "lint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace prisma::lint {
namespace {

/// Loads the checked-in fixture corpus (tests/lint_fixtures), a miniature
/// source tree with one known-bad file per rule plus files proving the
/// sanctioned silencing forms stay silent.
std::vector<SourceFile> LoadFixtures() {
  std::vector<SourceFile> files;
  std::string error;
  EXPECT_TRUE(LoadTree(LINT_FIXTURES_DIR, &files, &error)) << error;
  EXPECT_FALSE(files.empty());
  return files;
}

TEST(LintTest, GoldenDiagnosticsOverFixtureCorpus) {
  std::vector<Diagnostic> diagnostics = AnalyzeSources(LoadFixtures());

  std::vector<std::string> got;
  for (const Diagnostic& d : diagnostics) {
    got.push_back(d.path + ":" + std::to_string(d.line) + " " + d.rule);
  }
  // The full golden expectation: every known-bad site, nothing from the
  // annotated / sim fixtures, sorted by (path, line, rule).
  const std::vector<std::string> want = {
      "bad/discard.cc:12 D4",
      "bad/unordered_frame.cc:15 D2",
      "bad/unordered_frame.cc:18 D2",
      "bad/unordered_replica.cc:14 D2",
      "bad/unordered_replica.cc:17 D2",
      "bad/unordered_send.cc:14 D2",
      "bad/unordered_send.cc:17 D2",
      "bad/wall_clock.cc:11 D1",
      "bad/wall_clock.cc:15 D1",
      "bad/wall_clock.cc:18 D1",
      "bad/wall_clock.cc:22 D1",
      "bad/wall_clock.cc:24 D1",
      "machine_bad/gdh/query_process.h:13 D12",
      "machine_bad/gdh/query_process.h:14 D12",
      "machine_bad/gdh/query_process.h:15 D12",
      "machine_bad/gdh/query_process.h:16 D12",
      "machine_bad/gdh/query_process.h:17 D12",
      "machine_bad/gdh/query_process.h:18 D12",
      "machine_bad/gdh/query_process.h:23 D12",
      "machine_bad/gdh/query_process.h:24 D12",
      "obs/metric_names.h:8 D8",
      "procs/intruder.cc:9 D3",
      "procs/intruder.cc:12 D3",
      "proto/bad_dispatch.cc:9 D5",
      "proto/bad_dispatch.cc:11 D5",
      "proto/bad_tag.cc:9 D5",
      "proto/bad_tag.cc:11 D0",
      "proto/bad_tag.cc:12 D4",
      "proto/commit_bad.cc:24 D7",
      "proto/messages.h:10 D5",
      "proto/metrics_bad.cc:10 D8",
      "proto/rpc_bad.cc:12 D6",
      "proto/rpc_bad.cc:17 D6",
      "proto/rpc_client_bad.cc:15 D6",
      "proto/states_bad.cc:4 D7",
      "proto/states_bad.cc:4 D7",
      "proto/states_bad.cc:4 D7",
      "proto/states_bad.cc:8 D7",
      "proto/states_bad.cc:13 D7",
      "recv_bad/gdh/exchange_process.cc:6 D10",
      "recv_bad/gdh/exchange_process.cc:7 D10",
      "recv_bad/gdh/exchange_process.cc:10 D10",
      "recv_bad/gdh/query_process.h:12 D10",
      "recv_bad/gdh/query_process.h:14 D10",
      "wire_bad/gdh/messages.h:12 D9",
      "wire_bad/gdh/messages.h:23 D9",
      "wire_bad/gdh/messages.h:33 D9",
  };
  EXPECT_EQ(got, want);
}

TEST(LintTest, DiagnosticCarriesSnippetAndFormat) {
  std::vector<Diagnostic> diagnostics = AnalyzeSources(LoadFixtures());
  ASSERT_FALSE(diagnostics.empty());
  const Diagnostic& d = diagnostics[0];  // bad/discard.cc:12 [D4].
  EXPECT_EQ(d.snippet, "(void)DoWork();");
  EXPECT_EQ(d.Format().substr(0, 24), "bad/discard.cc:12: [D4] ");
}

TEST(LintTest, CrossProcessDiagnosticNamesTheOwningFile) {
  std::vector<Diagnostic> diagnostics = AnalyzeSources(LoadFixtures());
  bool found = false;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule != "D3") continue;
    found = true;
    EXPECT_NE(d.message.find("'Widget'"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("procs/widget.h"), std::string::npos)
        << d.message;
  }
  EXPECT_TRUE(found);
}

TEST(LintTest, AllowlistSilencesMatchedFindingAndFlagsStaleEntries) {
  std::vector<AllowlistEntry> allowlist;
  // Matches the two D3 findings in procs/intruder.cc (content-based, so it
  // survives line drift).
  allowlist.push_back({"D3", "procs/intruder.cc", "Widget* victim",
                       "fixture justification", 1});
  // Matches nothing: stale entries are themselves findings.
  allowlist.push_back({"D1", "bad/wall_clock.cc", "no_such_token",
                       "rotted entry", 2});

  LintReport report =
      ApplyAllowlist(AnalyzeSources(LoadFixtures()), allowlist);
  EXPECT_EQ(report.violations, 45u);  // 47 findings - 2 allowlisted.
  ASSERT_EQ(report.unused_allowlist.size(), 1u);
  EXPECT_EQ(report.unused_allowlist[0].needle, "no_such_token");
  EXPECT_FALSE(report.clean());

  size_t allowlisted = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (!d.allowlisted) continue;
    ++allowlisted;
    EXPECT_EQ(d.rule, "D3");
    EXPECT_EQ(d.justification, "fixture justification");
  }
  EXPECT_EQ(allowlisted, 2u);
}

TEST(LintTest, EmptyAllowlistReportsEveryFindingAsViolation) {
  LintReport report = ApplyAllowlist(AnalyzeSources(LoadFixtures()), {});
  EXPECT_EQ(report.violations, 47u);
  EXPECT_TRUE(report.unused_allowlist.empty());
  EXPECT_FALSE(report.clean());
}

TEST(LintTest, ParseAllowlistAcceptsEntriesAndRejectsMalformedLines) {
  const std::string content =
      "# comment line\n"
      "\n"
      "D3 | core/prisma_db.h | GdhProcess* gdh_ | harness owns the gdh\n"
      "D1 | missing_fields\n"
      "D2 | a.cc | needle |\n";
  std::vector<std::string> errors;
  std::vector<AllowlistEntry> entries = ParseAllowlist(content, &errors);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].rule, "D3");
  EXPECT_EQ(entries[0].path_suffix, "core/prisma_db.h");
  EXPECT_EQ(entries[0].needle, "GdhProcess* gdh_");
  EXPECT_EQ(entries[0].justification, "harness owns the gdh");
  EXPECT_EQ(entries[0].source_line, 3);
  EXPECT_EQ(errors.size(), 2u);  // Missing fields + empty justification.
}

TEST(LintTest, AnnotationSilencesSameAndNextLineOnly) {
  // The annotation covers the iteration on the next line but not the
  // second iteration two lines below it.
  std::vector<SourceFile> files;
  files.push_back(
      {"net/hot.cc",
       "#include \"pool/runtime.h\"\n"
       "#include <unordered_map>\n"
       "std::unordered_map<int, int> m_;\n"
       "void F() {\n"
       "  // prisma-lint: ordered - first loop only\n"
       "  for (const auto& [k, v] : m_) {}\n"
       "  for (const auto& [k, v] : m_) {}\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].line, 7);
  EXPECT_EQ(diagnostics[0].rule, "D2");
}

TEST(LintTest, UnorderedIterationOutsideObservableSurfaceIsAllowed) {
  // Same iteration, but the file touches no message/metrics/trace header:
  // internal iteration order cannot escape, so D2 stays quiet.
  std::vector<SourceFile> files;
  files.push_back(
      {"quiet/cold.cc",
       "#include <unordered_map>\n"
       "std::unordered_map<int, int> m_;\n"
       "void F() {\n"
       "  for (const auto& [k, v] : m_) {}\n"
       "}\n"});
  EXPECT_TRUE(AnalyzeSources(files).empty());
}

TEST(LintTest, ObservableSurfaceIsTransitiveThroughIncludes) {
  // cold.cc includes a local header which includes obs/metrics.h: the
  // closure makes cold.cc observable.
  std::vector<SourceFile> files;
  files.push_back({"quiet/wrap.h", "#include \"obs/metrics.h\"\n"});
  files.push_back(
      {"quiet/cold.cc",
       "#include \"quiet/wrap.h\"\n"
       "#include <unordered_map>\n"
       "std::unordered_map<int, int> m_;\n"
       "void F() {\n"
       "  for (const auto& [k, v] : m_) {}\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].path, "quiet/cold.cc");
  EXPECT_EQ(diagnostics[0].rule, "D2");
}

TEST(LintTest, MailTotalityFlagsKindAddedWithoutHandler) {
  // The exhaustiveness scenario from the issue: a new mail kind lands in
  // the protocol header but nobody claims it. The declaration site is the
  // diagnostic anchor.
  std::vector<SourceFile> files;
  files.push_back(
      {"proto/kinds.h",
       "inline constexpr char kMailA[] = \"a\";\n"
       "inline constexpr char kMailB[] = \"b\";\n"});
  files.push_back(
      {"proto/handler.cc",
       "// PRISMA_HANDLES(kMailA)\n"
       "void OnMail(const Mail& mail) {\n"
       "  if (mail.kind == kMailA) {\n"
       "  }\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "D5");
  EXPECT_EQ(diagnostics[0].path, "proto/kinds.h");
  EXPECT_EQ(diagnostics[0].line, 2);
  EXPECT_NE(diagnostics[0].message.find("kMailB"), std::string::npos)
      << diagnostics[0].message;
}

TEST(LintTest, MailTotalityAcceptsExhaustiveHandler) {
  // Same protocol, but the handler claims and dispatches every kind.
  std::vector<SourceFile> files;
  files.push_back(
      {"proto/kinds.h",
       "inline constexpr char kMailA[] = \"a\";\n"
       "inline constexpr char kMailB[] = \"b\";\n"});
  files.push_back(
      {"proto/handler.cc",
       "// PRISMA_HANDLES(kMailA, kMailB)\n"
       "void OnMail(const Mail& mail) {\n"
       "  if (mail.kind == kMailA) {\n"
       "  } else if (mail.kind == kMailB) {\n"
       "  }\n"
       "}\n"});
  EXPECT_TRUE(AnalyzeSources(files).empty());
}

TEST(LintTest, RpcRegistrationWithoutSettlementContractIsFlagged) {
  std::vector<SourceFile> files;
  files.push_back(
      {"net/client.cc",
       "#include <map>\n"
       "struct PendingRpc { int tries = 0; };\n"
       "std::map<int, PendingRpc> rpcs_;\n"
       "void Register(int id) {\n"
       "  rpcs_[id] = PendingRpc{};\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "D6");
  EXPECT_EQ(diagnostics[0].line, 5);
  EXPECT_NE(diagnostics[0].message.find("rpcs_"), std::string::npos)
      << diagnostics[0].message;
}

TEST(LintTest, RpcClientTableStillNeedsAnExhaustionPath) {
  // The pending-RPC table lives inside the transport's RpcClient; its
  // owner's contract must still name every settlement role.
  std::vector<Diagnostic> diagnostics = AnalyzeSources(LoadFixtures());
  std::vector<const Diagnostic*> d6;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == "D6" && d.path == "proto/rpc_client_bad.cc") {
      d6.push_back(&d);
    }
  }
  ASSERT_EQ(d6.size(), 1u);
  EXPECT_NE(d6[0]->message.find("'exhaustion'"), std::string::npos)
      << d6[0]->message;
  EXPECT_NE(d6[0]->message.find("calls_"), std::string::npos)
      << d6[0]->message;
}

TEST(LintTest, UndeclaredStateTransitionIsFlagged) {
  // An assignment to a tracked enum with no PRISMA_TRANSITION marker.
  std::vector<SourceFile> files;
  files.push_back(
      {"core/fsm.cc",
       "// PRISMA_STATE_MACHINE(S: init->kA)\n"
       "enum class S { kA, kB };\n"
       "struct T {\n"
       "  // PRISMA_TRANSITION(init, kA, born in the start state)\n"
       "  S s = S::kA;\n"
       "};\n"
       "void F(T& t) {\n"
       "  t.s = S::kB;\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "D7");
  EXPECT_EQ(diagnostics[0].line, 8);
}

TEST(LintTest, AnsweringBeforeTheDecisionIsAnUndeclaredTransition) {
  // The commit fixtures: the good lifecycle (one phase, or two phases
  // answered at the decision) is silent; a prepared transaction answered
  // before its decision is logged (kPreparing -> kCommitted) fires D7.
  std::vector<Diagnostic> diagnostics = AnalyzeSources(LoadFixtures());
  std::vector<const Diagnostic*> commit;
  for (const Diagnostic& d : diagnostics) {
    if (d.path == "proto/commit_good.cc" || d.path == "proto/commit_bad.cc") {
      commit.push_back(&d);
    }
  }
  ASSERT_EQ(commit.size(), 1u);
  EXPECT_EQ(commit[0]->path, "proto/commit_bad.cc");
  EXPECT_EQ(commit[0]->rule, "D7");
  EXPECT_NE(commit[0]->message.find("kPreparing -> kCommitted"),
            std::string::npos)
      << commit[0]->message;
}

TEST(LintTest, ByteSizeInWireBitsIsFlaggedOnlyInTheMessageHeader) {
  // A row sum and a single row alike.
  const std::string body =
      "struct Reply {\n"
      "  int64_t WireBits() const {\n"
      "    int64_t bits = kControlBits + FrameBits(rows);\n"
      "    for (const Tuple& t : extra)\n"
      "      bits += t.ByteSize() * 8;\n"
      "    return bits + one.ByteSize() * 8;\n"
      "  }\n"
      "};\n";
  std::vector<Diagnostic> diagnostics =
      AnalyzeSources({{"gdh/messages.h", body}, {"exec/ofm.h", body}});
  ASSERT_EQ(diagnostics.size(), 2u);
  for (const Diagnostic& d : diagnostics) {
    EXPECT_EQ(d.rule, "D9");
    EXPECT_EQ(d.path, "gdh/messages.h");
  }
  EXPECT_EQ(diagnostics[0].line, 5);
  EXPECT_EQ(diagnostics[1].line, 6);
}

TEST(LintTest, MetricNamesMustComeFromTheRegistry) {
  std::vector<SourceFile> files;
  files.push_back(
      {"obs/metric_names.h",
       "inline constexpr const char* kNames[] = {\n"
       "    // PRISMA_METRICS_BEGIN\n"
       "    \"app.good\",\n"
       "    // PRISMA_METRICS_END\n"
       "};\n"});
  files.push_back(
      {"exec/worker.cc",
       "void* GetCounter(const char* name);\n"
       "void F() {\n"
       "  GetCounter(\"app.good\");\n"
       "  GetCounter(\"app.typo\");\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "D8");
  EXPECT_EQ(diagnostics[0].path, "exec/worker.cc");
  EXPECT_EQ(diagnostics[0].line, 4);
  EXPECT_NE(diagnostics[0].message.find("app.typo"), std::string::npos)
      << diagnostics[0].message;
}

TEST(LintTest, GaugeNamesMustComeFromTheRegistryToo) {
  std::vector<SourceFile> files;
  files.push_back(
      {"obs/metric_names.h",
       "inline constexpr const char* kNames[] = {\n"
       "    // PRISMA_METRICS_BEGIN\n"
       "    \"app.level\",\n"
       "    // PRISMA_METRICS_END\n"
       "};\n"});
  files.push_back(
      {"exec/worker.cc",
       "void* GetGauge(const char* name);\n"
       "void F() {\n"
       "  GetGauge(\"app.level\");\n"
       "  GetGauge(\"app.levl\");\n"
       "}\n"});
  std::vector<Diagnostic> diagnostics = AnalyzeSources(files);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].rule, "D8");
  EXPECT_EQ(diagnostics[0].line, 4);
  EXPECT_NE(diagnostics[0].message.find("app.levl"), std::string::npos)
      << diagnostics[0].message;
}

TEST(LintTest, AnnotationHygieneFlagsUnknownTags) {
  // The lint lints its own annotation language: a typo'd tag silences
  // nothing, so it must be an error rather than a silent no-op.
  std::vector<Diagnostic> diagnostics = AnalyzeSources(LoadFixtures());
  std::vector<const Diagnostic*> d0;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule == "D0") d0.push_back(&d);
  }
  ASSERT_EQ(d0.size(), 1u);
  EXPECT_EQ(d0[0]->path, "proto/bad_tag.cc");
  EXPECT_EQ(d0[0]->line, 11);
  EXPECT_NE(d0[0]->message.find("odered"), std::string::npos)
      << d0[0]->message;
}

TEST(LintTest, ReportToJsonCarriesCountsAndDiagnostics) {
  std::vector<SourceFile> files = LoadFixtures();
  LintReport report = ApplyAllowlist(AnalyzeSources(files), {});
  const std::string json = ReportToJson(report, files.size());
  EXPECT_NE(json.find("\"files_scanned\": " + std::to_string(files.size())),
            std::string::npos);
  EXPECT_NE(json.find("\"violations\": 47"), std::string::npos);
  EXPECT_NE(json.find("\"clean\": false"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"D5\""), std::string::npos);
  EXPECT_NE(json.find("\"path\": \"bad/discard.cc\""), std::string::npos);
}

TEST(LintTest, CommentsAndLiteralsDoNotTriggerRules) {
  std::vector<SourceFile> files;
  files.push_back(
      {"quiet/strings.cc",
       "// std::chrono in a comment is fine; rand() too.\n"
       "/* std::mutex guard; */\n"
       "const char* kHelp = \"uses std::random_device internally\";\n"});
  EXPECT_TRUE(AnalyzeSources(files).empty());
}

}  // namespace
}  // namespace prisma::lint
