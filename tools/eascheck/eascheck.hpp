// eascheck — compiled static analyzer for the easched tree.
//
// Replaces the old grep determinism lint with a token-accurate
// C++ scanner plus an include-layering enforcer and a clang-tidy driver. The
// grep version could not see comments, strings or include edges: it flagged
// `SimTime time()` declarations and prose mentioning rand(), and it could
// never prove the layer diagram (sim -> disk/power -> storage -> runner/obs)
// from the real include graph. eascheck lexes every file once and runs rule
// engines over the token stream, so a banned identifier inside a comment or
// string literal is simply not a token.
//
// Engines (selected with --rules, see main.cpp):
//   determinism  token-accurate bans on hidden-nondeterminism sources
//   layering     include graph vs the tools/eascheck/layers.toml manifest
//   hotpath      heap-allocation / throw bans inside manifest-listed kernel
//                functions
//   contracts    public out-of-line mutators must carry an EAS_* contract
//   tidy         clang-tidy over compile_commands.json (find_program-gated)
//
// Waivers: a `// det-ok: <reason>` line comment suppresses any finding on
// that line. Every waiver must carry a non-empty reason, and a waiver that
// suppresses nothing under the full scan set is itself a finding (stale).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace eascheck {

// ---------------------------------------------------------------------------
// Tokens

enum class Tok {
  kIdent,         // identifiers and keywords
  kNumber,        // numeric literal (incl. digit separators, hex, suffixes)
  kString,        // string literal (raw, prefixed, escaped) — text dropped
  kChar,          // character literal — text dropped
  kPunct,         // operators/punctuation; `::` and `->` are single tokens
  kIncludeQuote,  // #include "path" — text is the path
  kIncludeAngle,  // #include <path> — text is the path
};

struct Token {
  Tok kind;
  std::string text;
  int line;
};

struct Waiver {
  std::string reason;
  bool used = false;
};

/// One lexed source file. `path` is the forward-slash path relative to the
/// scan root (e.g. "src/sim/simulator.cpp") — every finding and waiver is
/// anchored with it.
struct TokenFile {
  std::string path;
  std::vector<Token> tokens;
  std::map<int, Waiver> waivers;  // line -> waiver

  /// First path component ("src", "tests", ...).
  std::string top_dir() const;
  /// Second path component for files under src/ ("sim", "disk", ...);
  /// empty otherwise.
  std::string src_module() const;
  bool under(const std::string& prefix) const;  // path prefix test
};

/// Lexes `content` (the bytes of the file at `rel_path`). Never fails:
/// malformed trailing constructs degrade to punctuation tokens.
TokenFile lex_file(std::string rel_path, const std::string& content);

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string file;
  int line;
  std::string rule;
  std::string message;
};

class Report {
 public:
  /// Adds a finding unless a waiver on (f.path, line) suppresses it; a
  /// suppressing waiver is marked used.
  void add(TokenFile& f, int line, const std::string& rule,
           const std::string& message);
  /// Adds a finding with no waiver lookup (manifest-anchored findings,
  /// waiver bookkeeping findings).
  void add_raw(std::string file, int line, std::string rule,
               std::string message);

  std::vector<Finding> findings;
  std::size_t suppressed = 0;
};

// ---------------------------------------------------------------------------
// Layer manifest (tools/eascheck/layers.toml)

struct HotPathSpec {
  std::string file;                    // repo-relative, e.g. "src/disk/disk.cpp"
  std::vector<std::string> functions;  // unqualified function names
  int line = 0;                        // manifest line, for anchoring
};

struct Manifest {
  std::string path;  // manifest path as given, for anchoring findings
  /// module -> modules it may include (itself always allowed). Order
  /// preserved from the file.
  std::vector<std::pair<std::string, std::vector<std::string>>> layers;
  std::map<std::string, int> layer_lines;  // module -> manifest line
  std::vector<HotPathSpec> hotpaths;
  std::vector<std::string> nothrow_paths;  // path prefixes with a throw ban

  bool has_module(const std::string& m) const;
  const std::vector<std::string>* deps(const std::string& m) const;
};

/// Parses the TOML subset the manifest uses ([layers] table of string
/// arrays, [[hotpath]] tables, [nothrow] paths). Returns false and sets
/// `error` on malformed input.
bool parse_manifest(const std::string& file_path, const std::string& content,
                    Manifest& out, std::string& error);

// ---------------------------------------------------------------------------
// Engines

/// Determinism bans (libc rand/time seeding, random_device, system_clock,
/// std::function in src/sim/, stdlib RNG in src/fault/, wall clocks in
/// src/obs/, unordered-container range-for in decision modules).
void run_determinism(std::vector<TokenFile>& files, Report& rep);

/// Include-layering enforcement: every src-to-src include edge must be
/// allowed by the manifest, the realized module graph must be acyclic, and
/// every manifest edge must be exercised somewhere in the tree.
void run_layering(std::vector<TokenFile>& files, const Manifest& m,
                  Report& rep);

/// Hot-path bans inside manifest-listed function bodies (non-placement new,
/// allocator calls, heap-allocating std:: types) and the throw ban under
/// [nothrow] paths.
void run_hotpath(std::vector<TokenFile>& files, const Manifest& m,
                 Report& rep);

/// Contract coverage: out-of-line member definitions in src/*.cpp whose name
/// marks them as public mutators (set_/add_/insert_/register_ prefixes,
/// submit) must contain at least one EAS_* contract macro.
void run_contracts(std::vector<TokenFile>& files, Report& rep);

/// Runs clang-tidy over the TUs listed in `compile_commands` (filtered to
/// src/tests/bench/examples). Returns the number of findings; sets
/// `env_error` (exit 2) when the toolchain or database is missing and
/// `required` is set. When not required, a missing toolchain is a notice and
/// zero findings.
std::size_t run_tidy(const std::string& root,
                     const std::string& compile_commands, bool required,
                     bool& env_error);

/// Token index ranges [begin, end) of the bodies of every *definition* of
/// `name` in `f` (declarations and call sites are skipped). `begin` is the
/// token index just after the opening brace.
std::vector<std::pair<std::size_t, std::size_t>> find_function_bodies(
    const TokenFile& f, const std::string& name);

}  // namespace eascheck
