// nondeterminism-ban — the deterministic core must stay replayable.
//
// The simulator's whole value (and the fault-replay oracle's correctness,
// tools/faultcheck) rests on bit-for-bit reproducibility: the same scenario
// and seed must produce the same event trace, the same metric snapshot, the
// same packet bytes. That breaks the moment deterministic code reads a wall
// clock, OS entropy, or the environment — or iterates a hash container
// keyed by pointer, whose order is whatever the allocator handed out this
// run.
//
// Scope: src/sim, src/core, src/proxy, src/tcp — the modules on the
// simulated event path. The simulator clock (sim::Simulator::Now) and the
// seeded sim::Random are the only sanctioned time/randomness sources;
// anything else below is banned:
//
//   std::rand / srand          unseeded global RNG
//   std::random_device         OS entropy
//   time() / clock()           wall clock (libc)
//   system_clock / steady_clock / high_resolution_clock::now()  (chrono)
//   getenv                     host-dependent configuration
//   std::unordered_{map,set,multimap,multiset} with a pointer key
//                              address-ordered iteration
//
// A second scope covers the modules whose code runs inside simulation
// events (src/{net,tcp,udp,filters,proxy,reassembly,apps,mobileip,monitor}):
// there a non-const namespace-scope variable or static data member is also
// banned. Every worker of the parallel simulator shares it, and it survives
// Simulator::Reset, so its value depends on thread interleaving and on
// whatever ran before (the old process-wide packet uid counter was one).
// State belongs in a per-simulation object; function-local `static const`
// tables and constants of every kind stay legal.
//
// Escapes go through the allowlist table below (like include-layering's
// edge table), reviewed in the same commit — not through inline NOLINT.
// For mutable globals the "api" of an entry is the variable's name.
#include <array>
#include <string>
#include <utility>
#include <vector>

#include "tools/lint/rules.h"
#include "tools/lint/token_match.h"

namespace comma::lint {
namespace {

constexpr std::array<std::string_view, 4> kModules = {
    "src/sim/", "src/core/", "src/proxy/", "src/tcp/",
};

// Modules whose code runs inside events, where mutable globals are banned.
constexpr std::array<std::string_view, 9> kEventModules = {
    "src/net/",  "src/tcp/",        "src/udp/",  "src/filters/",  "src/proxy/",
    "src/reassembly/", "src/apps/", "src/mobileip/", "src/monitor/",
};

// Sanctioned uses of banned APIs. The sim clock and sim::Random are
// implemented without OS entropy or wall clocks, and src/proxy's one
// steady_clock read was replaced by a deterministic work count
// (sp.queue_resolve_work); only wall-clock *telemetry* that never feeds
// event ordering belongs here. Format:
//   {"src/sim/random.cc", "random_device"}  // one API in one file
//   {"src/sim/debug.cc", "*"}               // every banned API in the file
constexpr struct {
  std::string_view file;
  std::string_view api;
} kNondetAllowlist[] = {
    // Barrier-wait telemetry: the parallel epoch loop times how long
    // workers sit at the barrier (sim.barrier_wait_us). Wall clock by
    // nature, never feeds event ordering, and the determinism harness
    // filters it out of witnesses (testing::FilterWallClockMetrics).
    {"src/sim/simulator.cc", "steady_clock"},
};

constexpr std::array<std::string_view, 4> kUnorderedContainers = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
};

template <size_t N>
bool InScope(std::string_view path, const std::array<std::string_view, N>& modules) {
  for (std::string_view m : modules) {
    if (path.substr(0, m.size()) == m) {
      return true;
    }
  }
  return false;
}

// --- Mutable globals ---
//
// A brace-depth walk that keeps the scope kind of every open '{' and
// collects each declaration's tokens at namespace and class scope (paren
// groups and initializer braces folded to their opening token). Function
// bodies and enum bodies are skipped whole.

enum class Scope { kNamespace, kClass, kSkip, kInit };

bool IsClassKey(const Token& t) {
  return t.IsIdent("class") || t.IsIdent("struct") || t.IsIdent("union");
}

// Change in template-bracket depth at `t` (`>>` closes two).
int AngleStep(const Token& t) {
  return t.IsPunct("<") ? 1 : t.IsPunct(">") ? -1 : t.IsPunct(">>") ? -2 : 0;
}

// Index into `head` just past a leading `template <...>`.
size_t SkipTemplateHeader(const Tokens& toks, const std::vector<size_t>& head) {
  if (head.size() < 2 || !toks[head[0]].IsIdent("template") || !toks[head[1]].IsPunct("<")) {
    return 0;
  }
  int depth = 0;
  for (size_t k = 1; k < head.size(); ++k) {
    depth += AngleStep(toks[head[k]]);
    if (depth <= 0) {
      return k + 1;
    }
  }
  return head.size();
}

// What a declaration head says about itself, outside template brackets.
struct HeadShape {
  bool has_paren = false;       // A '(' before any '=': a function.
  bool has_assign = false;      // A top-level '='.
  bool has_class_key = false;   // class/struct/union/enum: a type, not a variable.
  bool is_enum = false;
  bool has_ctor_colon = false;  // `) :` — a constructor's initializer list.
};

HeadShape ShapeOf(const Tokens& toks, const std::vector<size_t>& head) {
  HeadShape shape;
  int angle = 0;
  bool after_paren = false;
  for (size_t k = SkipTemplateHeader(toks, head); k < head.size(); ++k) {
    const Token& t = toks[head[k]];
    if (t.IsPunct("=") && angle == 0) {
      shape.has_assign = true;
      break;
    }
    angle += AngleStep(t);
    if (angle > 0) {
      continue;
    }
    angle = 0;
    if (t.IsPunct("(")) {
      shape.has_paren = true;
      after_paren = true;
    } else if (t.IsPunct(":") && after_paren) {
      shape.has_ctor_colon = true;
    } else if (IsClassKey(t) || t.IsIdent("enum")) {
      shape.has_class_key = true;
      shape.is_enum = shape.is_enum || t.IsIdent("enum");
    }
  }
  return shape;
}

// Decides what the '{' at `open` opens, given the declaration head so far.
Scope Opens(const Tokens& toks, const std::vector<size_t>& head, size_t open) {
  if (head.empty()) {
    return Scope::kSkip;
  }
  const Token& first = toks[head[0]];
  if (first.IsIdent("namespace") ||
      (first.IsIdent("inline") && head.size() > 1 && toks[head[1]].IsIdent("namespace")) ||
      (first.IsIdent("extern") && head.size() == 2 && toks[head[1]].kind == TokenKind::kString)) {
    return Scope::kNamespace;
  }
  const HeadShape shape = ShapeOf(toks, head);
  const Token& before = toks[open - 1];
  if (shape.has_assign) {
    return Scope::kInit;
  }
  if (shape.is_enum) {
    return Scope::kSkip;
  }
  if (shape.has_paren) {
    // `Ctor() : member_{...}` braces belong to the initializer list; the
    // body follows a ')' or '}' (or a qualifier).
    return shape.has_ctor_colon && before.kind == TokenKind::kIdentifier ? Scope::kInit
                                                                          : Scope::kSkip;
  }
  if (shape.has_class_key) {
    return Scope::kClass;
  }
  return before.kind == TokenKind::kIdentifier || before.IsPunct("]") ? Scope::kInit
                                                                      : Scope::kSkip;
}

// The variable a complete declaration at namespace or class scope declares,
// when it is mutable shared state: kNpos otherwise. `*member` reports a
// static data member (declared in its class or defined as `T C::name`).
size_t MutableGlobal(const Tokens& toks, const std::vector<size_t>& head, Scope scope,
                     bool* member) {
  if (head.size() < 2) {
    return kNpos;
  }
  const Token& first = toks[head[0]];
  if (first.IsIdent("using") || first.IsIdent("typedef") || first.IsIdent("friend") ||
      first.IsIdent("static_assert") || first.IsIdent("template") || first.IsIdent("namespace")) {
    return kNpos;
  }
  const HeadShape shape = ShapeOf(toks, head);
  if (shape.has_paren || shape.has_class_key) {
    return kNpos;
  }
  bool is_static = false;
  bool is_const = false;
  size_t name = kNpos;
  int angle = 0;
  for (size_t k = 0; k < head.size(); ++k) {
    const Token& t = toks[head[k]];
    if (t.IsPunct("=") || t.IsPunct("{") || t.IsPunct("[") || t.IsPunct(",") ||
        t.IsPunct(":")) {
      if (angle == 0) {
        break;
      }
    }
    angle += AngleStep(t);
    if (angle > 0) {
      continue;
    }
    angle = 0;
    if (t.IsIdent("constexpr")) {
      return kNpos;
    }
    if (t.IsIdent("static")) {
      is_static = true;
    } else if (t.IsIdent("const")) {
      is_const = true;
    } else if (t.IsPunct("*")) {
      is_const = false;  // `const T*` is a mutable pointer; `T* const` is not.
    } else if (t.kind == TokenKind::kIdentifier) {
      name = head[k];
    }
  }
  if (is_const || name == kNpos || (scope == Scope::kClass && !is_static)) {
    return kNpos;
  }
  *member = scope == Scope::kClass || (name > 0 && toks[name - 1].IsPunct("::"));
  return name;
}

// Calls `report(name_token, is_member)` for every mutable global in `f`.
template <typename Report>
void ScanMutableGlobals(const LintFile& f, Report report) {
  const Tokens& toks = f.tokens;
  std::vector<Scope> scopes;  // Innermost last; empty at file scope.
  std::vector<size_t> head;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    const Scope scope = scopes.empty() ? Scope::kNamespace : scopes.back();
    if (t.IsPunct("(") || t.IsPunct("{")) {
      const Scope opened = t.IsPunct("(") ? Scope::kInit : Opens(toks, head, i);
      const size_t close = t.IsPunct("(") ? MatchingParen(toks, i) : MatchingBrace(toks, i);
      if (close == kNpos) {
        return;
      }
      if (opened == Scope::kInit) {
        head.push_back(i);  // The group stands for itself in the head.
        i = close;
      } else if (opened == Scope::kSkip) {
        head.clear();
        i = close;
      } else {
        scopes.push_back(opened);
        head.clear();
      }
    } else if (t.IsPunct("}")) {
      if (!scopes.empty()) {
        scopes.pop_back();
      }
      head.clear();
    } else if (t.IsPunct(";")) {
      bool member = false;
      const size_t name = MutableGlobal(toks, head, scope, &member);
      if (name != kNpos) {
        report(name, member);
      }
      head.clear();
    } else if (scope == Scope::kClass && i + 1 < toks.size() && toks[i + 1].IsPunct(":") &&
               (t.IsIdent("public") || t.IsIdent("protected") || t.IsIdent("private"))) {
      head.clear();
      ++i;
    } else if (t.kind == TokenKind::kIdentifier && t.text.rfind("COMMA_", 0) == 0 &&
               i + 1 < toks.size() && toks[i + 1].IsPunct("(")) {
      // Thread-safety annotations: `static T x COMMA_GUARDED_BY(mu);`.
      const size_t close = MatchingParen(toks, i + 1);
      if (close == kNpos) {
        return;
      }
      i = close;
    } else {
      head.push_back(i);
    }
  }
}

// True when the identifier at `i` is qualified by something other than
// `std` (e.g. `sim::Random::rand` would be, `std::rand` and bare `rand`
// are not).
bool HasNonStdQualifier(const Tokens& toks, size_t i) {
  if (i < 2 || !toks[i - 1].IsPunct("::")) {
    return false;
  }
  return !(toks[i - 2].IsIdent("std") || toks[i - 2].IsIdent("chrono"));
}

bool IsMemberAccess(const Tokens& toks, size_t i) {
  return i > 0 && (toks[i - 1].IsPunct(".") || toks[i - 1].IsPunct("->"));
}

// Walks the template argument list opened by the '<' at `open` and returns
// true when the *first* (key) argument contains a '*' at its top level —
// a pointer-keyed container. Tolerates nested templates; `>>` closers are
// counted as two.
bool PointerKeyedFirstArg(const Tokens& toks, size_t open) {
  int depth = 1;
  bool in_first_arg = true;
  for (size_t j = open + 1; j < toks.size() && j < open + 128; ++j) {
    const Token& t = toks[j];
    if (t.IsPunct("<")) {
      ++depth;
    } else if (t.IsPunct(">")) {
      if (--depth == 0) {
        return false;
      }
    } else if (t.IsPunct(">>")) {
      depth -= 2;
      if (depth <= 0) {
        return false;
      }
    } else if (t.IsPunct(",") && depth == 1) {
      in_first_arg = false;
    } else if (t.IsPunct("*") && depth == 1 && in_first_arg) {
      return true;
    }
  }
  return false;
}

class NondeterminismRule : public Rule {
 public:
  explicit NondeterminismRule(std::vector<NondetAllowance> allow) : allow_(std::move(allow)) {}

  std::string_view name() const override { return "nondeterminism-ban"; }
  std::string_view description() const override {
    return "src/{sim,core,proxy,tcp} may not read wall clocks, OS entropy, getenv, or iterate "
           "pointer-keyed hash containers; event-path modules may not keep mutable globals";
  }

  void Check(const Project& project, Diagnostics* out) const override {
    for (const LintFile& f : project.files) {
      if (InScope(f.path, kEventModules)) {
        CheckMutableGlobals(f, out);
      }
      if (!InScope(f.path, kModules)) {
        continue;
      }
      const Tokens& toks = f.tokens;
      for (size_t i = 0; i < toks.size(); ++i) {
        const Token& t = toks[i];
        if (t.kind != TokenKind::kIdentifier) {
          continue;
        }
        std::string api;
        std::string message;
        if ((t.text == "rand" || t.text == "srand") && NextIsCall(toks, i) &&
            !IsMemberAccess(toks, i) && !HasNonStdQualifier(toks, i)) {
          api = t.text;
          message = "'" + t.text + "()' draws from the unseeded global RNG; draw from the "
                    "scenario's seeded sim::Random instead";
        } else if (t.text == "random_device" && !IsMemberAccess(toks, i) &&
                   !HasNonStdQualifier(toks, i)) {
          api = t.text;
          message = "'std::random_device' taps OS entropy and breaks replay; seed a "
                    "sim::Random from the scenario config";
        } else if ((t.text == "time" || t.text == "clock") && NextIsCall(toks, i) &&
                   !IsMemberAccess(toks, i) && !HasNonStdQualifier(toks, i)) {
          api = t.text;
          message = "wall-clock call '" + t.text + "()' in deterministic code; event time is "
                    "sim::Simulator::Now()";
        } else if ((t.text == "system_clock" || t.text == "steady_clock" ||
                    t.text == "high_resolution_clock") &&
                   !IsMemberAccess(toks, i)) {
          api = t.text;
          message = "wall-clock read via std::chrono::" + t.text + " in deterministic code; "
                    "event time is sim::Simulator::Now()";
        } else if (t.text == "getenv" && NextIsCall(toks, i) && !IsMemberAccess(toks, i) &&
                   !HasNonStdQualifier(toks, i)) {
          api = t.text;
          message = "'getenv()' makes behaviour host-dependent; thread configuration through "
                    "the scenario/config structs";
        } else if (IsUnorderedContainer(t.text) && i + 1 < toks.size() &&
                   toks[i + 1].IsPunct("<") && PointerKeyedFirstArg(toks, i + 1)) {
          api = t.text;
          message = "pointer-keyed std::" + t.text + " iterates in address order, which varies "
                    "run to run; key by a stable id or use an ordered container";
        } else {
          continue;
        }
        if (Allowed(f.path, api)) {
          continue;
        }
        Diagnostic d;
        d.file = f.path;
        d.line = t.line;
        d.col = t.col;
        d.rule = "nondeterminism-ban";
        d.message = std::move(message);
        if (!f.IsSuppressed(d.rule, d.line)) {
          out->push_back(std::move(d));
        }
      }
    }
  }

 private:
  void CheckMutableGlobals(const LintFile& f, Diagnostics* out) const {
    ScanMutableGlobals(f, [&](size_t name, bool member) {
      const Token& t = f.tokens[name];
      if (Allowed(f.path, t.text)) {
        return;
      }
      Diagnostic d;
      d.file = f.path;
      d.line = t.line;
      d.col = t.col;
      d.rule = "nondeterminism-ban";
      d.message = std::string(member ? "static data member '" : "namespace-scope variable '") +
                  t.text + "' is mutable state shared by every simulator worker and kept "
                  "across Simulator::Reset; hold it in a per-simulation object or make it const";
      if (!f.IsSuppressed(d.rule, d.line)) {
        out->push_back(std::move(d));
      }
    });
  }

  static bool NextIsCall(const Tokens& toks, size_t i) {
    return i + 1 < toks.size() && toks[i + 1].IsPunct("(");
  }

  static bool IsUnorderedContainer(const std::string& text) {
    for (std::string_view c : kUnorderedContainers) {
      if (text == c) {
        return true;
      }
    }
    return false;
  }

  bool Allowed(const std::string& file, const std::string& api) const {
    for (const auto& e : kNondetAllowlist) {
      if (!e.file.empty() && file == e.file && (e.api == "*" || api == e.api)) {
        return true;
      }
    }
    for (const NondetAllowance& e : allow_) {
      if (file == e.file && (e.api == "*" || api == e.api)) {
        return true;
      }
    }
    return false;
  }

  std::vector<NondetAllowance> allow_;
};

}  // namespace

RulePtr MakeNondeterminismRule() {
  return std::make_unique<NondeterminismRule>(std::vector<NondetAllowance>{});
}

RulePtr MakeNondeterminismRule(std::vector<NondetAllowance> allow) {
  return std::make_unique<NondeterminismRule>(std::move(allow));
}

}  // namespace comma::lint
