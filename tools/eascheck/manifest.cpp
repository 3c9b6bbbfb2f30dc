// Parser for the TOML subset layers.toml uses:
//
//   [layers]                      # module -> allowed include targets
//   sim = ["util"]
//
//   [[hotpath]]                   # per-file hot function lists
//   file = "src/sim/simulator.cpp"
//   functions = ["cancel", "fire_next"]
//
//   [nothrow]                     # path prefixes with a throw ban
//   paths = ["src/sim"]
//
// Anything outside that shape (nested tables, non-string arrays, multi-line
// arrays) is a parse error: the manifest is a checked input, and a silently
// ignored rule would be exactly the vacuous-pass failure mode this tool
// exists to remove.

#include <sstream>

#include "eascheck.hpp"

namespace eascheck {
namespace {

std::string trim(const std::string& s) {
  std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

/// Strips a trailing comment that is not inside a string literal.
std::string strip_comment(const std::string& s) {
  bool in_str = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '"') in_str = !in_str;
    if (s[i] == '#' && !in_str) return s.substr(0, i);
  }
  return s;
}

bool parse_string(const std::string& v, std::string& out) {
  const std::string t = trim(v);
  if (t.size() < 2 || t.front() != '"' || t.back() != '"') return false;
  out = t.substr(1, t.size() - 2);
  return out.find('"') == std::string::npos;
}

bool parse_string_array(const std::string& v, std::vector<std::string>& out) {
  const std::string t = trim(v);
  if (t.size() < 2 || t.front() != '[' || t.back() != ']') return false;
  const std::string body = trim(t.substr(1, t.size() - 2));
  out.clear();
  if (body.empty()) return true;
  std::size_t pos = 0;
  while (pos <= body.size()) {
    std::size_t comma = body.find(',', pos);
    const std::string item =
        comma == std::string::npos ? body.substr(pos) : body.substr(pos, comma - pos);
    std::string s;
    if (!parse_string(item, s)) return false;
    out.push_back(std::move(s));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

}  // namespace

bool Manifest::has_module(const std::string& m) const {
  return layer_lines.count(m) != 0;
}

const std::vector<std::string>* Manifest::deps(const std::string& m) const {
  for (const auto& [mod, d] : layers) {
    if (mod == m) return &d;
  }
  return nullptr;
}

bool parse_manifest(const std::string& file_path, const std::string& content,
                    Manifest& out, std::string& error) {
  out = Manifest{};
  out.path = file_path;
  enum class Section { kNone, kLayers, kHotpath, kNothrow } section =
      Section::kNone;
  std::istringstream in(content);
  std::string raw;
  int line = 0;
  auto fail = [&](const std::string& why) {
    std::ostringstream os;
    os << file_path << ":" << line << ": " << why;
    error = os.str();
    return false;
  };
  while (std::getline(in, raw)) {
    ++line;
    const std::string s = trim(strip_comment(raw));
    if (s.empty()) continue;
    if (s == "[layers]") {
      section = Section::kLayers;
      continue;
    }
    if (s == "[[hotpath]]") {
      section = Section::kHotpath;
      out.hotpaths.push_back(HotPathSpec{{}, {}, line});
      continue;
    }
    if (s == "[nothrow]") {
      section = Section::kNothrow;
      continue;
    }
    if (s.front() == '[') return fail("unknown section " + s);
    const std::size_t eq = s.find('=');
    if (eq == std::string::npos) return fail("expected key = value");
    const std::string key = trim(s.substr(0, eq));
    const std::string val = s.substr(eq + 1);
    switch (section) {
      case Section::kNone:
        return fail("key outside any section");
      case Section::kLayers: {
        std::vector<std::string> deps;
        if (!parse_string_array(val, deps)) {
          return fail("layer value must be an array of module strings");
        }
        if (out.layer_lines.count(key) != 0) {
          return fail("duplicate layer entry for " + key);
        }
        out.layers.emplace_back(key, std::move(deps));
        out.layer_lines[key] = line;
        break;
      }
      case Section::kHotpath: {
        HotPathSpec& hp = out.hotpaths.back();
        if (key == "file") {
          if (!parse_string(val, hp.file)) return fail("file must be a string");
        } else if (key == "functions") {
          if (!parse_string_array(val, hp.functions)) {
            return fail("functions must be an array of strings");
          }
        } else {
          return fail("unknown hotpath key " + key);
        }
        break;
      }
      case Section::kNothrow: {
        if (key != "paths") return fail("unknown nothrow key " + key);
        if (!parse_string_array(val, out.nothrow_paths)) {
          return fail("paths must be an array of strings");
        }
        break;
      }
    }
  }
  for (const HotPathSpec& hp : out.hotpaths) {
    line = hp.line;
    if (hp.file.empty()) return fail("[[hotpath]] entry missing file");
    if (hp.functions.empty()) {
      return fail("[[hotpath]] entry missing functions");
    }
  }
  if (out.layers.empty()) {
    line = 0;
    return fail("manifest has no [layers] entries");
  }
  return true;
}

}  // namespace eascheck
