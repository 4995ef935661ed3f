#include "protocol.h"

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <string>

namespace prisma::lint {
namespace {

void Emit(std::vector<Diagnostic>* out, const PreparedFile& file, int line,
          const char* rule, std::string message) {
  Diagnostic d;
  d.path = file.path;
  d.line = line;
  d.rule = rule;
  d.message = std::move(message);
  if (line >= 1 && line <= static_cast<int>(file.raw.size())) {
    d.snippet = Trim(file.raw[line - 1]);
  }
  out->push_back(std::move(d));
}

/// (file index, line) of a marker/site, for cross-referencing.
struct Site {
  size_t file = 0;
  int line = 0;
};

// ------------------------------------------------------------------ rule D0
//
// Annotation hygiene: a typo'd tag or marker silences nothing today and
// silently disables the check it meant to configure — so unknown tags,
// unknown markers and reason-less annotations are themselves findings.

void CheckAnnotationHygiene(const std::vector<PreparedFile>& files,
                            const std::vector<FileStructure>& structures,
                            std::vector<Diagnostic>* out) {
  static const std::set<std::string> kKnownTags = {
      "nondet", "ordered", "cross-process", "unused-status"};
  // Uppercase macros that legitimately appear inside prose comments and
  // must not be mistaken for protocol annotations.
  static const std::set<std::string> kKnownMacros = {"CHECK", "DCHECK",
                                                     "WERROR", "SEED_REPRO"};
  static const std::set<std::string> kKnownMarkers = {
      "HANDLES", "SETTLES", "STATE_MACHINE", "TRANSITION", "STATE_SETTER"};
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const PreparedFile& file = files[fi];
    for (const TagAnnotation& a : file.annotations) {
      if (!kKnownTags.contains(a.tag)) {
        Emit(out, file, a.line, "D0",
             "unknown prisma-lint tag '" + a.tag +
                 "' — it silences nothing; valid tags: nondet, ordered, "
                 "cross-process, unused-status");
      } else if (!a.has_reason) {
        Emit(out, file, a.line, "D0",
             "prisma-lint annotation '" + a.tag +
                 "' without a reason — write '// prisma-lint: " + a.tag +
                 " - <why>'");
      }
    }
    for (const Marker& m : structures[fi].markers) {
      if (!kKnownMarkers.contains(m.tag) && !kKnownMacros.contains(m.tag)) {
        Emit(out, file, m.line, "D0",
             "unknown protocol annotation 'PRISMA_" + m.tag +
                 "' — it declares nothing; valid markers: PRISMA_HANDLES, "
                 "PRISMA_SETTLES, PRISMA_STATE_MACHINE, PRISMA_TRANSITION, "
                 "PRISMA_STATE_SETTER");
      }
    }
  }
}

// ------------------------------------------------------------------ rule D5
//
// Mail-handler totality. The mail-kind universe is every `inline
// constexpr char kMail*[]` constant in the tree (gdh/messages.h in the
// real tree). Each file that dispatches mail declares its consumed set
// with `// PRISMA_HANDLES(kMailA, kMailB)` markers; the dispatch if-chain
// (`mail.kind == kMailA` tests) must cover exactly that set, and every
// kind in the universe must be consumed by at least one process. A kind
// with no handler is dead protocol surface — or, worse, mail a default
// branch silently drops.

void CheckMailTotality(const std::vector<PreparedFile>& files,
                       const std::vector<FileStructure>& structures,
                       std::vector<Diagnostic>* out) {
  // Universe of declared mail kinds.
  std::map<std::string, Site> universe;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const auto& [name, line] : structures[fi].mail_constants) {
      auto [it, inserted] = universe.try_emplace(name, Site{fi, line});
      if (!inserted) {
        Emit(out, files[fi], line, "D5",
             "duplicate declaration of mail kind '" + name +
                 "' (first declared in " + files[it->second.file].path + ":" +
                 std::to_string(it->second.line) + ")");
      }
    }
  }

  static const std::regex kDispatch(
      "\\bmail\\s*\\.\\s*kind\\s*[!=]=\\s*([A-Za-z_][\\w:]*)");
  static const std::regex kMailToken("\\bkMail\\w+\\b");

  std::set<std::string> declared_anywhere;
  struct PerFile {
    std::map<std::string, int> handled;   // kind -> first dispatch line.
    std::map<std::string, int> declared;  // kind -> marker line.
  };
  std::vector<PerFile> per_file(files.size());

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const PreparedFile& file = files[fi];
    PerFile& pf = per_file[fi];
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& code = file.code[li];
      for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                          kDispatch);
           it != std::sregex_iterator(); ++it) {
        const std::string kind = UnqualifiedName((*it)[1].str());
        pf.handled.try_emplace(kind, static_cast<int>(li) + 1);
      }
      // Self-check: any kMail token that names no declared kind is a typo
      // (a misspelled constant would be a compile error, but annotations,
      // fixtures and dead branches can rot silently).
      for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                          kMailToken);
           it != std::sregex_iterator(); ++it) {
        const std::string token = it->str();
        if (!universe.contains(token)) {
          Emit(out, file, static_cast<int>(li) + 1, "D5",
               "reference to unknown mail kind '" + token +
                   "' — not declared as a kMail* constant anywhere");
        }
      }
    }
    for (const Marker& m : structures[fi].markers) {
      if (m.tag != "HANDLES") continue;
      for (const std::string& kind : SplitCommaList(m.args)) {
        if (!universe.contains(kind)) {
          Emit(out, file, m.line, "D5",
               "PRISMA_HANDLES names unknown mail kind '" + kind +
                   "' — not declared as a kMail* constant anywhere");
          continue;
        }
        pf.declared.try_emplace(kind, m.line);
        declared_anywhere.insert(kind);
      }
    }
  }

  for (size_t fi = 0; fi < files.size(); ++fi) {
    const PreparedFile& file = files[fi];
    const PerFile& pf = per_file[fi];
    for (const auto& [kind, line] : pf.handled) {
      if (!universe.contains(kind)) continue;  // Already reported above.
      if (!pf.declared.contains(kind)) {
        Emit(out, file, line, "D5",
             "dispatches mail kind '" + kind +
                 "' without declaring it — add '// PRISMA_HANDLES(" + kind +
                 ")' to this file's handler contract");
      }
    }
    for (const auto& [kind, line] : pf.declared) {
      if (!pf.handled.contains(kind)) {
        Emit(out, file, line, "D5",
             "PRISMA_HANDLES declares '" + kind +
                 "' but no dispatch test ('mail.kind == " + kind +
                 "') exists here — the if-chain is not exhaustive over its "
                 "declared set (or the annotation is stale)");
      }
    }
  }

  for (const auto& [kind, site] : universe) {
    if (!declared_anywhere.contains(kind)) {
      Emit(out, files[site.file], site.line, "D5",
           "mail kind '" + kind +
               "' is consumed by no process — every kind must be claimed "
               "by a PRISMA_HANDLES declaration (a kind nobody dispatches "
               "is silently dropped by every default branch)");
    }
  }
}

// ------------------------------------------------------------------ rule D6
//
// RPC lifecycle. A container of pending RPCs (declared with a PendingRpc
// value type, or an RpcClient<...> table) buys an obligation: whoever
// inserts (or RpcClient::Send()s) must also settle — on the success path
// (reply arrived), on retry-budget exhaustion, and on a shed/sweep (target
// known dead, statement finished). The triad is declared per container:
//   // PRISMA_SETTLES(rpcs_: success=SettleRpc, exhaustion=RpcExhausted,
//   //                shed=TryFailover)
// and each named function must exist in the header/cc pair and visibly
// settle (erase/clear the container — Settle/SettleAll on an RpcClient —
// or call another declared settler).
// Scope is the header/cc stem pair, like D2's declaration sharing.

struct SettlesDecl {
  std::map<std::string, std::string> roles;  // role -> function name.
  size_t file = 0;
  int line = 0;
};

void CheckRpcLifecycle(const std::vector<PreparedFile>& files,
                       const std::vector<FileStructure>& structures,
                       std::vector<Diagnostic>* out) {
  // Group file indices by stem (path minus extension).
  std::map<std::string, std::vector<size_t>> pairs;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    pairs[files[fi].path.substr(0, files[fi].path.rfind('.'))].push_back(fi);
  }

  static const std::regex kTrackedDecl(
      "(?:PendingRpc\\s*>{1,3}|\\bRpcClient\\s*<[^;]*>)\\s*(\\w+)\\s*"
      "[;={(]");
  static const std::set<std::string> kRoles = {"success", "exhaustion",
                                               "shed"};

  for (const auto& [stem, members] : pairs) {
    // Tracked containers and SETTLES declarations across the pair.
    std::map<std::string, Site> tracked;
    std::map<std::string, SettlesDecl> settles;
    std::map<std::string, std::vector<Site>> registrations;

    for (size_t fi : members) {
      const PreparedFile& file = files[fi];
      std::string joined;
      std::vector<size_t> line_starts;
      for (const std::string& line : file.code) {
        line_starts.push_back(joined.size());
        joined += line;
        joined += '\n';
      }
      auto line_of = [&line_starts](size_t pos) {
        auto it = std::upper_bound(line_starts.begin(), line_starts.end(),
                                   pos);
        return static_cast<int>(it - line_starts.begin());
      };
      for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                          kTrackedDecl);
           it != std::sregex_iterator(); ++it) {
        tracked.try_emplace(
            (*it)[1].str(),
            Site{fi, line_of(static_cast<size_t>(it->position()))});
      }
      for (const Marker& m : structures[fi].markers) {
        if (m.tag != "SETTLES") continue;
        const size_t colon = m.args.find(':');
        if (colon == std::string::npos) {
          Emit(out, file, m.line, "D6",
               "malformed PRISMA_SETTLES — expected "
               "'(container: success=Fn, exhaustion=Fn, shed=Fn)'");
          continue;
        }
        SettlesDecl decl;
        decl.file = fi;
        decl.line = m.line;
        const std::string name = Trim(m.args.substr(0, colon));
        for (const std::string& piece :
             SplitCommaList(m.args.substr(colon + 1))) {
          const size_t eq = piece.find('=');
          if (eq == std::string::npos) {
            Emit(out, file, m.line, "D6",
                 "malformed PRISMA_SETTLES role '" + piece +
                     "' — expected 'role=Function'");
            continue;
          }
          const std::string role = Trim(piece.substr(0, eq));
          if (!kRoles.contains(role)) {
            Emit(out, file, m.line, "D6",
                 "unknown PRISMA_SETTLES role '" + role +
                     "' — valid roles: success, exhaustion, shed");
            continue;
          }
          decl.roles[role] = Trim(piece.substr(eq + 1));
        }
        settles[name] = std::move(decl);
      }
    }

    // Registration sites per tracked container.
    for (size_t fi : members) {
      const PreparedFile& file = files[fi];
      for (const auto& [name, decl_site] : tracked) {
        const std::regex reg(
            "(\\b" + name + "|\\(\\s*\\*\\s*" + name +
            "\\s*\\))\\s*(\\[[^\\]]*\\]\\s*=[^=]|(\\.|->)\\s*"
            "(insert|emplace|try_emplace|Send)\\s*\\()");
        for (size_t li = 0; li < file.code.size(); ++li) {
          if (std::regex_search(file.code[li], reg)) {
            registrations[name].push_back(
                Site{fi, static_cast<int>(li) + 1});
          }
        }
      }
    }

    for (const auto& [name, sites] : registrations) {
      if (!settles.contains(name)) {
        for (const Site& s : sites) {
          Emit(out, files[s.file], s.line, "D6",
               "outstanding RPC registered in '" + name +
                   "' but the pair declares no settlement contract — add "
                   "'// PRISMA_SETTLES(" + name +
                   ": success=Fn, exhaustion=Fn, shed=Fn)'");
        }
      }
    }

    for (const auto& [name, decl] : settles) {
      const PreparedFile& dfile = files[decl.file];
      if (!tracked.contains(name)) {
        Emit(out, dfile, decl.line, "D6",
             "PRISMA_SETTLES names '" + name +
                 "' but no PendingRpc container of that name is declared "
                 "in this header/cc pair (stale annotation?)");
        continue;
      }
      if (!registrations.contains(name)) {
        Emit(out, dfile, decl.line, "D6",
             "PRISMA_SETTLES names '" + name +
                 "' but nothing in this header/cc pair registers into it "
                 "(stale annotation?)");
        continue;
      }
      for (const std::string& role : kRoles) {
        if (!decl.roles.contains(role)) {
          Emit(out, dfile, decl.line, "D6",
               "PRISMA_SETTLES(" + name + ") is missing the '" + role +
                   "' settlement path — orphaned RPCs hide exactly there");
        }
      }
      // Each role function must exist in the pair and visibly settle.
      for (const auto& [role, fn_name] : decl.roles) {
        const FunctionDef* fn = nullptr;
        size_t fn_file = 0;
        for (size_t fi : members) {
          for (const FunctionDef& candidate : structures[fi].functions) {
            if (candidate.name == fn_name) {
              fn = &candidate;
              fn_file = fi;
              break;
            }
          }
          if (fn != nullptr) break;
        }
        if (fn == nullptr) {
          Emit(out, dfile, decl.line, "D6",
               "PRISMA_SETTLES(" + name + ") " + role + " path '" + fn_name +
                   "' is not defined in this header/cc pair");
          continue;
        }
        // Direct settle: erase/clear on the container...
        const std::regex settle_re(
            "(\\b" + name + "|\\(\\s*\\*\\s*" + name +
            "\\s*\\))\\s*(\\.|->)\\s*(erase|clear|Settle|SettleAll)\\s*\\(");
        // ...or delegation to another declared settle path.
        std::string others;
        for (const auto& [other_role, other_fn] : decl.roles) {
          if (other_fn == fn_name) continue;
          others += (others.empty() ? "" : "|") + other_fn;
        }
        const std::regex delegate_re("\\b(" + (others.empty() ? "$^" : others) +
                                     ")\\s*\\(");
        bool settles_it = false;
        const PreparedFile& ffile = files[fn_file];
        for (int li = fn->first_line; li <= fn->last_line; ++li) {
          const std::string& code = ffile.code[static_cast<size_t>(li) - 1];
          if (std::regex_search(code, settle_re) ||
              std::regex_search(code, delegate_re)) {
            settles_it = true;
            break;
          }
        }
        if (!settles_it) {
          Emit(out, dfile, decl.line, "D6",
               "PRISMA_SETTLES(" + name + ") " + role + " path '" + fn_name +
                   "' never erases/clears the container nor delegates to "
                   "another declared settle path — the RPC leaks");
        }
      }
    }
  }
}

// ------------------------------------------------------------------ rule D7
//
// State-machine conformance. A lifecycle enum declares its legal
// transitions once:
//   // PRISMA_STATE_MACHINE(ReplicaState: init->kInSync, kInSync->kStale,
//   //                      kStale->kResyncing, ...)
// ("init" is the pseudo-state of member initializers). Every assignment
// of a literal enumerator — directly or through a setter tagged
// `// PRISMA_STATE_SETTER(Enum)` — must carry a site annotation
//   // PRISMA_TRANSITION(from, to, reason)
// on the same or the preceding line. Undeclared transitions, unannotated
// assignments, unreachable declared transitions and annotations matching
// no site are all findings.

struct TransitionKey {
  std::string from, to;
  bool operator<(const TransitionKey& o) const {
    return from != o.from ? from < o.from : to < o.to;
  }
};

struct MachineDecl {
  std::set<std::string> states;                 // Enumerators.
  std::map<TransitionKey, Site> table;          // Declared transitions.
  std::set<TransitionKey> used;                 // Observed at sites.
  std::vector<std::pair<std::string, Site>> setters;  // Name, decl site.
};

void CheckStateMachines(const std::vector<PreparedFile>& files,
                        const std::vector<FileStructure>& structures,
                        std::vector<Diagnostic>* out) {
  // Enum definitions tree-wide.
  struct EnumSite {
    const EnumDef* def;
    size_t file;
  };
  std::map<std::string, EnumSite> enums;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const EnumDef& def : structures[fi].enums) {
      enums.try_emplace(def.name, EnumSite{&def, fi});
    }
  }

  std::map<std::string, MachineDecl> machines;
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const PreparedFile& file = files[fi];
    for (const Marker& m : structures[fi].markers) {
      if (m.tag == "STATE_MACHINE") {
        const size_t colon = m.args.find(':');
        if (colon == std::string::npos) {
          Emit(out, file, m.line, "D7",
               "malformed PRISMA_STATE_MACHINE — expected "
               "'(Enum: from->to, from->to, ...)'");
          continue;
        }
        const std::string name = Trim(m.args.substr(0, colon));
        auto enum_it = enums.find(name);
        if (enum_it == enums.end()) {
          Emit(out, file, m.line, "D7",
               "PRISMA_STATE_MACHINE names unknown enum '" + name + "'");
          continue;
        }
        MachineDecl& machine = machines[name];
        machine.states.insert(enum_it->second.def->enumerators.begin(),
                              enum_it->second.def->enumerators.end());
        for (const std::string& entry :
             SplitCommaList(m.args.substr(colon + 1))) {
          const size_t arrow = entry.find("->");
          if (arrow == std::string::npos) {
            Emit(out, file, m.line, "D7",
                 "malformed transition '" + entry + "' — expected from->to");
            continue;
          }
          TransitionKey key{Trim(entry.substr(0, arrow)),
                            Trim(entry.substr(arrow + 2))};
          for (const std::string& state : {key.from, key.to}) {
            if (state != "init" && !machine.states.contains(state)) {
              Emit(out, file, m.line, "D7",
                   "transition names unknown state '" + state + "' of " +
                       name);
            }
          }
          machine.table.try_emplace(key, Site{fi, m.line});
        }
      } else if (m.tag == "STATE_SETTER") {
        const std::string name = Trim(m.args);
        if (!enums.contains(name)) {
          Emit(out, file, m.line, "D7",
               "PRISMA_STATE_SETTER names unknown enum '" + name + "'");
          continue;
        }
        // The setter is the function declared on the marker's line or the
        // next one.
        static const std::regex kFn("([A-Za-z_]\\w*)\\s*\\(");
        std::string fn;
        int fn_line = 0;
        for (int li = m.line; li <= m.line + 1; ++li) {
          if (li < 1 || li > static_cast<int>(file.code.size())) continue;
          std::smatch fm;
          const std::string& code = file.code[static_cast<size_t>(li) - 1];
          if (std::regex_search(code, fm, kFn)) {
            fn = fm[1].str();
            fn_line = li;
            break;
          }
        }
        if (fn.empty()) {
          Emit(out, file, m.line, "D7",
               "PRISMA_STATE_SETTER is not attached to a function "
               "declaration");
          continue;
        }
        machines[name].setters.emplace_back(fn, Site{fi, fn_line});
      }
    }
  }

  // Transition site detection + conformance.
  std::set<std::pair<size_t, int>> consumed_markers;
  for (auto& [enum_name, machine] : machines) {
    auto enum_it = enums.find(enum_name);
    if (enum_it == enums.end() || machine.table.empty()) continue;
    const EnumDef* def = enum_it->second.def;
    const size_t enum_file = enum_it->second.file;
    const std::regex literal("\\b" + enum_name + "\\s*::\\s*(\\w+)");

    for (size_t fi = 0; fi < files.size(); ++fi) {
      const PreparedFile& file = files[fi];
      for (size_t li = 0; li < file.code.size(); ++li) {
        const int line = static_cast<int>(li) + 1;
        // Inside the enum's own declaration.
        if (fi == enum_file && line >= def->first_line &&
            line <= def->last_line) {
          continue;
        }
        const std::string& code = file.code[li];
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            literal);
             it != std::sregex_iterator(); ++it) {
          const std::string state = (*it)[1].str();
          if (!machine.states.contains(state)) continue;
          // Classify the use by what precedes it.
          std::string prefix =
              code.substr(0, static_cast<size_t>(it->position()));
          while (!prefix.empty() &&
                 std::isspace(static_cast<unsigned char>(prefix.back()))) {
            prefix.pop_back();
          }
          bool is_assignment = false;
          if (!prefix.empty() && prefix.back() == '=') {
            const char before =
                prefix.size() >= 2 ? prefix[prefix.size() - 2] : '\0';
            is_assignment = before != '=' && before != '!' &&
                            before != '<' && before != '>';
          }
          bool is_setter_call = false;
          if (!is_assignment) {
            for (const auto& [setter, decl_site] : machine.setters) {
              if (decl_site.file == fi && decl_site.line == line) {
                continue;  // The setter's own declaration.
              }
              const size_t call = code.find(setter + "(");
              const size_t call_sp = code.find(setter + " (");
              const size_t at = std::min(call, call_sp);
              if (at != std::string::npos &&
                  at < static_cast<size_t>(it->position())) {
                is_setter_call = true;
                break;
              }
            }
          }
          if (!is_assignment && !is_setter_call) continue;

          // Find the site's PRISMA_TRANSITION on this or the previous line.
          const Marker* site_marker = nullptr;
          for (const Marker& m : structures[fi].markers) {
            if (m.tag != "TRANSITION") continue;
            if (m.line == line || m.line == line - 1) {
              site_marker = &m;
              break;
            }
          }
          if (site_marker == nullptr) {
            Emit(out, file, line, "D7",
                 enum_name + " set to " + state +
                     " without a declared transition — annotate the site "
                     "with '// PRISMA_TRANSITION(from, " + state +
                     ", reason)'");
            continue;
          }
          consumed_markers.insert({fi, site_marker->line});
          std::vector<std::string> parts = SplitCommaList(site_marker->args);
          if (parts.size() < 3) {
            Emit(out, file, site_marker->line, "D7",
                 "malformed PRISMA_TRANSITION — expected (from, to, reason)");
            continue;
          }
          const std::string from = parts[0];
          const std::string to = parts[1];
          if (to != state) {
            Emit(out, file, site_marker->line, "D7",
                 "PRISMA_TRANSITION declares target '" + to +
                     "' but the site assigns " + enum_name + "::" + state);
            continue;
          }
          for (const std::string& s : {from, to}) {
            if (s != "init" && !machine.states.contains(s)) {
              Emit(out, file, site_marker->line, "D7",
                   "PRISMA_TRANSITION names unknown state '" + s + "' of " +
                       enum_name);
            }
          }
          TransitionKey key{from, to};
          if (!machine.table.contains(key)) {
            Emit(out, file, line, "D7",
                 "undeclared transition " + from + " -> " + to + " of " +
                     enum_name +
                     " — add it to the PRISMA_STATE_MACHINE table or fix "
                     "the site");
            continue;
          }
          machine.used.insert(key);
        }
      }
    }

    for (const auto& [key, site] : machine.table) {
      if (!machine.used.contains(key)) {
        Emit(out, files[site.file], site.line, "D7",
             "declared transition " + key.from + " -> " + key.to + " of " +
                 enum_name +
                 " is exercised by no annotated site (dead table entry, or "
                 "an assignment the structural pass cannot see)");
      }
    }
  }

  // TRANSITION markers that attached to no detected site silence nothing.
  for (size_t fi = 0; fi < files.size(); ++fi) {
    for (const Marker& m : structures[fi].markers) {
      if (m.tag != "TRANSITION") continue;
      if (!consumed_markers.contains({fi, m.line})) {
        Emit(out, files[fi], m.line, "D7",
             "PRISMA_TRANSITION matches no state assignment on this or the "
             "next line (stale annotation, or a site shape the structural "
             "pass cannot see)");
      }
    }
  }
}

// ------------------------------------------------------------------ rule D8
//
// Metric-name registry. Every literal counter, gauge or histogram name
// (GetCounter / GetGauge / GetHistogram / LazyCounter) and tracer
// span/instant category+name must appear in the obs/metric_names.h
// registry, and every registry entry must be used — so a typo'd name fails the build instead
// of silently starting a new series, and deleted metrics cannot leave
// ghost entries behind.

struct RegistryEntry {
  int line = 0;
  bool used = false;
};

void ParseRegistrySection(const PreparedFile& file, const char* begin_marker,
                          const char* end_marker,
                          std::map<std::string, RegistryEntry>* entries,
                          std::vector<Diagnostic>* out) {
  static const std::regex kEntry("\"([^\"]*)\"");
  bool in_section = false;
  for (size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& raw = file.raw[li];
    if (raw.find(begin_marker) != std::string::npos) {
      in_section = true;
      continue;
    }
    if (raw.find(end_marker) != std::string::npos) {
      in_section = false;
      continue;
    }
    if (!in_section) continue;
    std::smatch m;
    if (std::regex_search(raw, m, kEntry)) {
      auto [it, inserted] = entries->try_emplace(
          m[1].str(), RegistryEntry{static_cast<int>(li) + 1, false});
      if (!inserted) {
        Emit(out, file, static_cast<int>(li) + 1, "D8",
             "duplicate registry entry '" + m[1].str() + "' (first at line " +
                 std::to_string(it->second.line) + ")");
      }
    }
  }
}

void CheckMetricRegistry(const std::vector<PreparedFile>& files,
                         std::vector<Diagnostic>* out) {
  const PreparedFile* registry = nullptr;
  for (const PreparedFile& file : files) {
    if (EndsWith(file.path, "obs/metric_names.h")) {
      registry = &file;
      break;
    }
  }
  std::map<std::string, RegistryEntry> metrics;
  std::map<std::string, RegistryEntry> spans;
  if (registry != nullptr) {
    ParseRegistrySection(*registry, "PRISMA_METRICS_BEGIN",
                         "PRISMA_METRICS_END", &metrics, out);
    ParseRegistrySection(*registry, "PRISMA_SPANS_BEGIN", "PRISMA_SPANS_END",
                         &spans, out);
  }

  // Literal name sites, matched over the literal-preserving text view so
  // multi-line calls resolve (the name is often on the line after the
  // opening parenthesis).
  static const std::regex kCounter(
      "\\b(?:Get(?:Counter|Gauge|Histogram)\\s*\\(|LazyCounter\\s*\\([^\")]*,)"
      "\\s*\"([^\"]+)\"");
  static const std::regex kSpan(
      "\\b(?:Span|Instant)\\s*\\(\\s*\"([^\"]+)\"\\s*,\\s*(\"([^\"]+)\")?");

  bool any_site = false;
  bool missing_reported = false;
  for (const PreparedFile& file : files) {
    if (&file == registry) continue;
    std::string joined;
    std::vector<size_t> line_starts;
    for (const std::string& line : file.text) {
      line_starts.push_back(joined.size());
      joined += line;
      joined += '\n';
    }
    auto line_of = [&line_starts](size_t pos) {
      auto it = std::upper_bound(line_starts.begin(), line_starts.end(), pos);
      return static_cast<int>(it - line_starts.begin());
    };
    auto check = [&](const std::string& name, size_t pos,
                     std::map<std::string, RegistryEntry>* reg,
                     const char* what) {
      any_site = true;
      if (registry == nullptr) {
        if (!missing_reported) {
          Emit(out, file, line_of(pos), "D8",
               std::string(what) + " '" + name +
                   "' used but the tree has no obs/metric_names.h registry");
          missing_reported = true;
        }
        return;
      }
      auto it = reg->find(name);
      if (it == reg->end()) {
        Emit(out, file, line_of(pos), "D8",
             std::string(what) + " '" + name +
                 "' is not in the obs/metric_names.h registry — typo, or a "
                 "new series that must be registered");
      } else {
        it->second.used = true;
      }
    };
    for (auto it = std::sregex_iterator(joined.begin(), joined.end(),
                                        kCounter);
         it != std::sregex_iterator(); ++it) {
      check((*it)[1].str(), static_cast<size_t>(it->position()), &metrics,
            "metric name");
    }
    for (auto it = std::sregex_iterator(joined.begin(), joined.end(), kSpan);
         it != std::sregex_iterator(); ++it) {
      check((*it)[1].str(), static_cast<size_t>(it->position()), &spans,
            "span category");
      if ((*it)[3].matched) {
        check((*it)[3].str(), static_cast<size_t>(it->position()), &spans,
              "span name");
      }
    }
  }
  (void)any_site;

  if (registry != nullptr) {
    for (const auto& [name, entry] : metrics) {
      if (!entry.used) {
        Emit(out, *registry, entry.line, "D8",
             "dead registry entry: metric '" + name +
                 "' is emitted nowhere — delete it or restore the series");
      }
    }
    for (const auto& [name, entry] : spans) {
      if (!entry.used) {
        Emit(out, *registry, entry.line, "D8",
             "dead registry entry: span '" + name +
                 "' is emitted nowhere — delete it or restore the span");
      }
    }
  }
}

// ------------------------------------------------------------------ rule D9

bool IsWireMessageHeader(const std::string& path) {
  return path == "gdh/messages.h" || EndsWith(path, "/gdh/messages.h");
}

void CheckWireSizing(const std::vector<PreparedFile>& files,
                     const std::vector<FileStructure>& structures,
                     std::vector<Diagnostic>* out) {
  for (size_t fi = 0; fi < files.size(); ++fi) {
    const PreparedFile& file = files[fi];
    if (!IsWireMessageHeader(file.path)) continue;
    for (const FunctionDef& fn : structures[fi].functions) {
      if (fn.name != "WireBits") continue;
      for (int line = fn.first_line; line <= fn.last_line; ++line) {
        if (file.code[line - 1].find("ByteSize(") != std::string::npos) {
          Emit(out, file, line, "D9",
               "WireBits() charges ByteSize() — rows cross the wire as "
               "one column frame sized by its byte length (RowFrame / "
               "FrameBits, DESIGN.md §12.2)");
        }
      }
    }
  }
}

// ------------------------------------------------------------------ rule D10
//
// One receiver. A batch stream's inbound channels belong to the
// transport's StreamReceiver (gdh/transport.h): a process that names
// exec::InboundChannel itself is re-growing the routing, dedup, EOS and
// ack code the receiver owns. And a gdh process takes every inbound
// stream through one StreamReceiver and sends every outbound stream
// through one StreamSender: a header under gdh/ that declares a second
// member of either type (bare, in std::optional or inside a member
// struct) is growing a parallel path back.

bool IsGdhSource(const std::string& path) {
  return StartsWith(path, "gdh/") || path.find("/gdh/") != std::string::npos;
}

void CheckOneStreamMember(const PreparedFile& file,
                          std::vector<Diagnostic>* out) {
  static const std::regex kMember(
      "\\b(StreamReceiver|StreamSender)\\s*>*\\s+\\w+\\s*[;={]");
  std::map<std::string, int> first;  // Type -> line of its first member.
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    std::smatch match;
    // The find keeps the regex off the lines that cannot match.
    if (line.find("Stream") == std::string::npos ||
        !std::regex_search(line, match, kMember)) {
      continue;
    }
    // "class StreamSender final {" defines the type; it declares no member.
    const std::string before = match.prefix().str();
    if (EndsWith(before, "class ") || EndsWith(before, "struct ")) continue;
    const std::string type = match[1].str();
    const int at = static_cast<int>(li) + 1;
    auto [it, fresh] = first.emplace(type, at);
    if (fresh) continue;
    Emit(out, file, at, "D10",
         "a second " + type + " member (the first is on line " +
             std::to_string(it->second) +
             ") — a process keeps one receiver and one sender, each "
             "carrying all of its streams (DESIGN.md §10.5)");
  }
}

bool MayNameInboundChannel(const std::string& path) {
  for (const char* owner : {"exec/exchange.h", "exec/exchange.cc",
                            "gdh/transport.h", "gdh/transport.cc"}) {
    if (path == owner || EndsWith(path, std::string("/") + owner)) {
      return true;
    }
  }
  return false;
}

void CheckOneReceiver(const std::vector<PreparedFile>& files,
                      std::vector<Diagnostic>* out) {
  static const std::regex kName("\\bInboundChannel\\b");
  for (const PreparedFile& file : files) {
    if (MayNameInboundChannel(file.path)) continue;
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& line = file.code[li];
      // The find keeps the regex off the lines that cannot match.
      if (line.find("InboundChannel") == std::string::npos ||
          !std::regex_search(line, kName)) {
        continue;
      }
      Emit(out, file, static_cast<int>(li) + 1, "D10",
           "exec::InboundChannel outside the transport — receive batch "
           "streams through gdh::StreamReceiver, which owns its channels "
           "(DESIGN.md §10.5)");
    }
    if (IsGdhSource(file.path) && EndsWith(file.path, ".h")) {
      CheckOneStreamMember(file, out);
    }
  }
}

// ------------------------------------------------------------------ rule D12
//
// One copy of the machine's settings. A gdh process's Config carries the
// machine-wide settings as one `MachineParams machine` value
// (gdh/machine_params.h), copied whole at spawn, and reads CPU costs from
// the runtime: a Config member of one of those types is a field-by-field
// copy growing back. MachineParams itself is no Config, so it is exempt.

void CheckOneMachineCopy(const std::vector<PreparedFile>& files,
                         std::vector<Diagnostic>* out) {
  static const std::regex kConfig("\\bstruct\\s+Config\\b");
  static const std::regex kSetting(
      "\\b(CostModel|RetransmitPolicy|OptimizerRules|TcAlgorithm)\\s+\\w+"
      "\\s*[;={]|\\b(MetricsRegistry|Tracer|PlanCache|PeLocalRegistry)"
      "\\s*\\*\\s*\\w+\\s*[;={]");
  for (const PreparedFile& file : files) {
    if (!IsGdhSource(file.path)) continue;
    bool in_config = false;
    bool opened = false;
    int depth = 0;  // Braces open inside the current Config.
    for (size_t li = 0; li < file.code.size(); ++li) {
      std::string line = file.code[li];
      if (!in_config) {
        std::smatch match;
        if (line.find("Config") == std::string::npos ||
            !std::regex_search(line, match, kConfig)) {
          continue;
        }
        line = match.suffix().str();
        // A forward declaration opens nothing.
        if (line.find('{') == std::string::npos &&
            line.find(';') != std::string::npos) {
          continue;
        }
        in_config = true;
        opened = false;
        depth = 0;
      } else if (depth == 1 && std::regex_search(line, kSetting)) {
        Emit(out, file, static_cast<int>(li) + 1, "D12",
             "machine setting copied into a process Config — carry the "
             "machine's settings as one MachineParams field and read CPU "
             "costs from the runtime (DESIGN.md §10.5)");
      }
      for (const char c : line) {
        if (c == '{') {
          ++depth;
          opened = true;
        } else if (c == '}') {
          --depth;
        }
      }
      if (opened && depth <= 0) in_config = false;
    }
  }
}

}  // namespace

void CheckProtocolRules(const std::vector<PreparedFile>& files,
                        const std::vector<FileStructure>& structures,
                        std::vector<Diagnostic>* out) {
  CheckAnnotationHygiene(files, structures, out);
  CheckMailTotality(files, structures, out);
  CheckRpcLifecycle(files, structures, out);
  CheckStateMachines(files, structures, out);
  CheckMetricRegistry(files, out);
  CheckWireSizing(files, structures, out);
  CheckOneReceiver(files, out);
  CheckOneMachineCopy(files, out);
}

}  // namespace prisma::lint
