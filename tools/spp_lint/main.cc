// spp-lint driver (docs/STATIC_ANALYSIS.md).
//
//   spp-lint [--repo-root DIR] [--compile-db FILE] [--json-out FILE] [files..]
//   spp-lint --self-test DIR
//
// Without explicit files, walks <repo-root>/src and <repo-root>/tools for
// .h/.cc sources (plus any in-tree .cc listed in the compile database) and
// runs all five checks.  Findings print as `file:line: [check] message`.
// --json-out writes the arch-mutation inventory (docs/STATIC_ANALYSIS.md,
// "The mutation inventory").
//
// --self-test runs each fixture under DIR on its own, honoring the
// `spp-lint-fixture: as-path` / `expect` directives, and fails unless every
// fixture produces exactly its expected check set -- the proof that the
// checks still fire.
//
// Exit codes: 0 clean / all fixtures pass, 1 findings / fixture mismatch,
// 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"
#include "lint.h"

namespace fs = std::filesystem;
using spplint::Result;
using spplint::SourceFile;

namespace {

/// Repo-relative display path with forward slashes.
std::string display_path(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(file, root, ec);
  std::string s = (ec || rel.empty()) ? file.generic_string()
                                      : rel.generic_string();
  while (s.compare(0, 3, "../") == 0) s = s.substr(3);
  return s;
}

bool is_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".h";
}

/// Collects .h/.cc files under <root>/src and <root>/tools, sorted.
std::vector<fs::path> walk_tree(const fs::path& root) {
  std::vector<fs::path> out;
  for (const char* top : {"src", "tools"}) {
    const fs::path dir = root / top;
    if (!fs::is_directory(dir)) continue;
    for (const auto& e : fs::recursive_directory_iterator(dir)) {
      if (e.is_regular_file() && is_source(e.path())) out.push_back(e.path());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Minimal compile_commands.json reader: extracts the "file" values.  The
/// format is machine-generated by CMake, so a targeted scan beats hauling in
/// a JSON library the image doesn't have.
std::vector<std::string> compile_db_files(const std::string& db_path) {
  std::ifstream in(db_path);
  std::vector<std::string> out;
  if (!in) return out;
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  const std::string kKey = "\"file\"";
  std::size_t pos = 0;
  while ((pos = content.find(kKey, pos)) != std::string::npos) {
    pos += kKey.size();
    while (pos < content.size() &&
           (content[pos] == ' ' || content[pos] == ':')) {
      ++pos;
    }
    if (pos >= content.size() || content[pos] != '"') continue;
    std::size_t end = content.find('"', pos + 1);
    if (end == std::string::npos) break;
    out.push_back(content.substr(pos + 1, end - pos - 1));
    pos = end + 1;
  }
  return out;
}

int run_self_test(const fs::path& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "spp-lint: --self-test: no such directory: %s\n",
                 dir.string().c_str());
    return 2;
  }
  std::vector<fs::path> fixtures;
  for (const auto& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file() && e.path().extension() == ".cc") {
      fixtures.push_back(e.path());
    }
  }
  std::sort(fixtures.begin(), fixtures.end());
  if (fixtures.empty()) {
    std::fprintf(stderr, "spp-lint: --self-test: no fixtures in %s\n",
                 dir.string().c_str());
    return 2;
  }

  int failures = 0;
  for (const auto& fx : fixtures) {
    SourceFile f = spplint::lex_file(fx.string(), fx.filename().string());
    std::set<std::string> expected;
    for (const auto& [key, value] : f.directives) {
      if (key == "as-path") {
        f.path = value;
      } else if (key == "expect" && value != "none") {
        expected.insert(value);
      }
    }
    Result res = spplint::run_checks({f});
    std::set<std::string> got;
    for (const auto& fi : res.findings) got.insert(fi.check);

    if (got == expected) {
      std::printf("PASS %s\n", fx.filename().string().c_str());
      continue;
    }
    ++failures;
    std::printf("FAIL %s\n", fx.filename().string().c_str());
    for (const auto& c : expected) {
      if (got.count(c) == 0) {
        std::printf("  expected %s, but the check did not fire\n", c.c_str());
      }
    }
    for (const auto& fi : res.findings) {
      if (expected.count(fi.check) == 0) {
        std::printf("  unexpected %s:%d: [%s] %s\n", fi.file.c_str(), fi.line,
                    fi.check.c_str(), fi.message.c_str());
      }
    }
  }
  std::printf("spp-lint self-test: %zu fixtures, %d failures\n",
              fixtures.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string repo_root = ".";
  std::string compile_db;
  std::string json_out;
  std::string self_test;
  std::vector<std::string> explicit_files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "spp-lint: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--repo-root") {
      repo_root = value();
    } else if (arg == "--compile-db") {
      compile_db = value();
    } else if (arg == "--json-out") {
      json_out = value();
    } else if (arg == "--self-test") {
      self_test = value();
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: spp-lint [--repo-root DIR] [--compile-db FILE]\n"
          "                [--json-out FILE] [files...]\n"
          "       spp-lint --self-test DIR\n");
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "spp-lint: unknown option %s\n", arg.c_str());
      return 2;
    } else {
      explicit_files.push_back(arg);
    }
  }

  if (!self_test.empty()) return run_self_test(self_test);

  const fs::path root = fs::absolute(repo_root);
  std::vector<fs::path> paths;
  if (!explicit_files.empty()) {
    for (const auto& f : explicit_files) paths.emplace_back(f);
  } else {
    paths = walk_tree(root);
    // The compile database can list generated or out-of-tree sources the
    // walk missed; fold in any .cc that lives under the repo root.
    if (compile_db.empty()) {
      const fs::path def = root / "build" / "compile_commands.json";
      if (fs::exists(def)) compile_db = def.string();
    }
    std::set<std::string> seen;
    for (const auto& p : paths) seen.insert(fs::absolute(p).string());
    for (const auto& f : compile_db_files(compile_db)) {
      fs::path p = fs::path(f).is_absolute() ? fs::path(f) : root / f;
      std::error_code ec;
      if (!fs::exists(p, ec)) continue;
      const std::string abs = fs::absolute(p).string();
      if (abs.compare(0, root.string().size(), root.string()) != 0) continue;
      if (is_source(p) && seen.insert(abs).second) paths.push_back(p);
    }
    std::sort(paths.begin(), paths.end());
  }

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const auto& p : paths) {
    try {
      files.push_back(spplint::lex_file(p.string(), display_path(p, root)));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "spp-lint: %s\n", e.what());
      return 2;
    }
  }

  Result res = spplint::run_checks(files);

  if (!json_out.empty()) {
    const fs::path out = json_out;
    std::error_code ec;
    if (out.has_parent_path()) fs::create_directories(out.parent_path(), ec);
    std::ofstream os(out);
    if (!os) {
      std::fprintf(stderr, "spp-lint: cannot write %s\n", json_out.c_str());
      return 2;
    }
    os << spplint::sites_to_json(res.sites);
  }

  for (const auto& fi : res.findings) {
    std::printf("%s:%d: [%s] %s\n", fi.file.c_str(), fi.line,
                fi.check.c_str(), fi.message.c_str());
  }
  const std::string inventory_note =
      json_out.empty() ? "" : " -> " + json_out;
  std::printf(
      "spp-lint: %zu files, %zu findings, %zu arch mutation sites%s\n",
      files.size(), res.findings.size(), res.sites.size(),
      inventory_note.c_str());
  return res.findings.empty() ? 0 : 1;
}
