#include "lint.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace spplint {

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool contains(const std::set<std::string>& s, const std::string& k) {
  return s.count(k) != 0;
}

/// True when the finding at `line` carries a matching allow annotation on
/// the same line or the line directly above.
bool allowed(const SourceFile& f, const std::string& check, int line) {
  for (int l : {line, line - 1}) {
    auto it = f.allows.find(l);
    if (it != f.allows.end() && it->second.count(check) != 0) return true;
  }
  return false;
}

void emit(Result& res, const SourceFile& f, const std::string& check, int line,
          const std::string& message) {
  if (allowed(f, check, line)) return;
  res.findings.push_back({check, f.path, line, message});
}

/// Module name for the inventory: "src/spp/rt/..." -> "rt",
/// "tools/..." -> "tools", "tests/..." -> "tests".
std::string module_of(const std::string& path) {
  if (starts_with(path, "src/spp/")) {
    std::size_t end = path.find('/', 8);
    return end == std::string::npos ? "spp" : path.substr(8, end - 8);
  }
  std::size_t end = path.find('/');
  return end == std::string::npos ? path : path.substr(0, end);
}

bool is_keyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",     "while",   "switch",     "catch",   "return",
      "sizeof",   "alignof", "decltype", "static_cast", "const_cast",
      "dynamic_cast", "reinterpret_cast", "new", "delete", "throw",
      "static_assert", "noexcept", "typeid", "alignas", "co_await",
      "co_yield", "co_return", "assert", "defined",
  };
  return kKeywords.count(s) != 0;
}

// ---------------------------------------------------------------------------
// sim-no-wallclock
// ---------------------------------------------------------------------------

/// Paths where wall-clock access is the *point*: the watchdog measures host
/// time by design, ckpt::Disk stamps manifests, and spp::io sleeps real
/// backoff delays between retries.  Everything else under src/ runs on
/// sim::Time only, so replay and digests stay bit-identical.
bool wallclock_exempt(const std::string& path) {
  return starts_with(path, "src/spp/rt/watchdog") ||
         starts_with(path, "src/spp/ckpt/disk") ||
         starts_with(path, "src/spp/io/");
}

void check_wallclock(const SourceFile& f, Result& res) {
  static const char kCheck[] = "sim-no-wallclock";
  if (!starts_with(f.path, "src/")) return;  // tools/ and tests/ are host code.
  if (wallclock_exempt(f.path)) return;

  // <cstdlib> also exports rand/srand but is pervasive (abort, getenv,
  // strtol), so the functions are flagged at use sites instead.
  static const std::set<std::string> kBadIncludes = {
      "chrono", "ctime", "time.h", "sys/time.h", "random"};
  for (const auto& [name, line] : f.includes) {
    if (contains(kBadIncludes, name)) {
      emit(res, f, kCheck, line,
           "#include <" + name +
               "> pulls a wall-clock/entropy source into simulated code; "
               "use sim::Time (or move the code under the rt::Watchdog / "
               "ckpt::Disk allowlist)");
    }
  }

  // Clock/entropy *types* -- any use is wrong regardless of qualification.
  static const std::set<std::string> kBadTypes = {
      "steady_clock", "system_clock", "high_resolution_clock",
      "random_device", "mt19937", "mt19937_64", "default_random_engine"};
  // Free functions -- flagged as calls, unqualified or std::-qualified, but
  // not as members (`msg.time(...)` is somebody's API, not <ctime>).
  static const std::set<std::string> kBadCalls = {
      "time",        "clock",         "rand",      "srand",
      "gettimeofday", "clock_gettime", "timespec_get", "localtime",
      "gmtime",      "mktime",        "nanosleep", "usleep", "sleep"};
  // this_thread::-qualified sleeps.
  static const std::set<std::string> kBadSleeps = {"sleep_for", "sleep_until"};

  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& id = t[i].text;
    const Token* prev = i > 0 ? &t[i - 1] : nullptr;
    const Token* prev2 = i > 1 ? &t[i - 2] : nullptr;
    const bool member = prev != nullptr && prev->kind == Token::Kind::kPunct &&
                        (prev->text == "." || prev->text == "->");
    const bool qualified = prev != nullptr &&
                           prev->kind == Token::Kind::kPunct &&
                           prev->text == "::";
    const std::string qualifier =
        (qualified && prev2 != nullptr && prev2->kind == Token::Kind::kIdent)
            ? prev2->text
            : "";

    if (contains(kBadTypes, id) && !member) {
      emit(res, f, kCheck, t[i].line,
           "'" + id + "' is a wall-clock/entropy source; simulated code must "
           "derive all time from sim::Time and all randomness from seeded "
           "spp state");
      continue;
    }
    const bool is_call = i + 1 < t.size() &&
                         t[i + 1].kind == Token::Kind::kPunct &&
                         t[i + 1].text == "(";
    if (!is_call || member) continue;
    // `sim::Time clock() const` declares a member named clock -- a preceding
    // identifier (the return type) marks a declaration, not a call.
    if (prev != nullptr && prev->kind == Token::Kind::kIdent) continue;
    if (qualified && qualifier != "std" && qualifier != "this_thread") continue;
    if (contains(kBadCalls, id)) {
      emit(res, f, kCheck, t[i].line,
           "call to '" + id + "' reads host wall-clock/entropy; simulated "
           "code must be a pure function of its seed and inputs");
    } else if (contains(kBadSleeps, id) && qualifier == "this_thread") {
      emit(res, f, kCheck, t[i].line,
           "'this_thread::" + id + "' blocks on host time inside simulated "
           "code; model delays with sim::Time instead");
    }
  }
}

// ---------------------------------------------------------------------------
// sim-no-host-thread
// ---------------------------------------------------------------------------

void check_host_thread(const SourceFile& f, Result& res) {
  static const char kCheck[] = "sim-no-host-thread";
  // Host concurrency lives in exactly two places: the conductor/fiber layer
  // (rt/) and durable checkpointing (ckpt/).  Everywhere else, parallelism
  // is *simulated* -- SThreads multiplexed by the conductor -- and a real
  // std::thread would race the single-owner simulation state.
  if (!starts_with(f.path, "src/spp/")) return;
  if (starts_with(f.path, "src/spp/rt/") ||
      starts_with(f.path, "src/spp/ckpt/")) {
    return;
  }

  static const std::set<std::string> kBadIncludes = {
      "thread", "mutex", "shared_mutex", "condition_variable", "atomic",
      "future", "semaphore", "barrier", "latch", "stop_token", "pthread.h"};
  for (const auto& [name, line] : f.includes) {
    if (contains(kBadIncludes, name)) {
      emit(res, f, kCheck, line,
           "#include <" + name + "> brings host threading into simulated "
           "code; only src/spp/rt/ and src/spp/ckpt/ may touch host "
           "concurrency");
    }
  }

  static const std::set<std::string> kBadStd = {
      "thread",        "jthread",       "mutex",
      "recursive_mutex", "timed_mutex",  "shared_mutex",
      "condition_variable", "condition_variable_any",
      "atomic",        "atomic_flag",   "atomic_ref",
      "future",        "promise",       "async",
      "lock_guard",    "unique_lock",   "scoped_lock",
      "shared_lock",   "counting_semaphore", "binary_semaphore",
      "barrier",       "latch",         "call_once",
      "once_flag",     "this_thread",   "stop_token"};
  static const std::set<std::string> kBadWrappers = {"HostMutex", "HostLock"};
  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent) continue;
    const std::string& id = t[i].text;
    if (id == "thread_local") {
      emit(res, f, kCheck, t[i].line,
           "'thread_local' implies host threads; simulated per-thread state "
           "belongs on the SThread");
      continue;
    }
    if (starts_with(id, "pthread_")) {
      emit(res, f, kCheck, t[i].line,
           "'" + id + "' is a host threading primitive; only src/spp/rt/ "
           "and src/spp/ckpt/ may use host concurrency");
      continue;
    }
    if (contains(kBadWrappers, id)) {
      emit(res, f, kCheck, t[i].line,
           "'" + id + "' wraps a host mutex; simulated code synchronizes "
           "through rt::Conductor hand-offs, not host locks");
      continue;
    }
    const bool std_qualified =
        i >= 2 && t[i - 1].kind == Token::Kind::kPunct &&
        t[i - 1].text == "::" && t[i - 2].kind == Token::Kind::kIdent &&
        t[i - 2].text == "std";
    if (std_qualified && contains(kBadStd, id)) {
      emit(res, f, kCheck, t[i].line,
           "'std::" + id + "' is a host threading primitive; only "
           "src/spp/rt/ and src/spp/ckpt/ may use host concurrency");
    }
  }
}

// ---------------------------------------------------------------------------
// posix-file-io
// ---------------------------------------------------------------------------

void check_posix_io(const SourceFile& f, Result& res) {
  static const char kCheck[] = "posix-file-io";
  // The durable layer's fault story hangs on one funnel: every host file
  // operation in simulated code routes through the spp::io seam, where the
  // armed io::FaultPlan can see it and the recovery ladder can classify its
  // failure.  A raw open()/rename() anywhere else under src/ is invisible
  // to fault injection and untested against ENOSPC / torn renames / bit
  // rot (docs/RECOVERY.md, "Host I/O faults & the degradation ladder").
  if (!starts_with(f.path, "src/")) return;  // tools/ and tests/ are host code.
  if (starts_with(f.path, "src/spp/io/")) return;  // the seam itself.

  static const std::set<std::string> kBadIncludes = {
      "fcntl.h", "sys/stat.h", "sys/file.h", "dirent.h", "filesystem"};
  for (const auto& [name, line] : f.includes) {
    if (contains(kBadIncludes, name)) {
      emit(res, f, kCheck, line,
           "#include <" + name + "> reaches the host filesystem behind the "
           "spp::io seam; route file operations through io::File / io::Dir "
           "so fault injection and the recovery ladder can see them");
    }
  }

  // Flagged when unqualified, ::-global, or std::-qualified; a call through
  // any other qualifier (io::Dir::rename, fs::rename inside spp::io) is
  // somebody's wrapped API, not raw POSIX.
  static const std::set<std::string> kBadCalls = {
      "open",      "openat",  "creat",     "fopen",    "freopen",
      "fdopen",    "fread",   "fwrite",    "fclose",   "fsync",
      "fdatasync", "rename",  "renameat",  "unlink",   "unlinkat",
      "mkdir",     "rmdir",   "ftruncate", "truncate", "mkdtemp",
      "mkstemp",   "flock"};
  // Names too generic to flag bare (`rt.write(...)`, a local `read()`):
  // only the ::-global form is unambiguously the syscall.
  static const std::set<std::string> kGlobalOnly = {
      "read", "write", "close", "lseek", "pread", "pwrite"};

  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || is_keyword(t[i].text)) continue;
    const std::string& id = t[i].text;
    const bool is_call = i + 1 < t.size() &&
                         t[i + 1].kind == Token::Kind::kPunct &&
                         t[i + 1].text == "(";
    if (!is_call) continue;
    const Token* prev = i > 0 ? &t[i - 1] : nullptr;
    const Token* prev2 = i > 1 ? &t[i - 2] : nullptr;
    if (prev != nullptr && prev->kind == Token::Kind::kPunct &&
        (prev->text == "." || prev->text == "->")) {
      continue;  // member call: somebody's API, not POSIX.
    }
    if (prev != nullptr && prev->kind == Token::Kind::kIdent) {
      continue;  // declaration: `void close() noexcept`.
    }
    const bool qualified = prev != nullptr &&
                           prev->kind == Token::Kind::kPunct &&
                           prev->text == "::";
    const std::string qualifier =
        (qualified && prev2 != nullptr && prev2->kind == Token::Kind::kIdent)
            ? prev2->text
            : "";
    const bool global = qualified && qualifier.empty();
    if (contains(kGlobalOnly, id)) {
      if (global) {
        emit(res, f, kCheck, t[i].line,
             "'::" + id + "' is a raw POSIX file operation; only src/spp/io/ "
             "may touch the host filesystem -- route it through io::File");
      }
      continue;
    }
    if (!contains(kBadCalls, id)) continue;
    if (qualified && !global && qualifier != "std") continue;
    emit(res, f, kCheck, t[i].line,
         "call to '" + id + "' bypasses the spp::io seam; only src/spp/io/ "
         "may touch the host filesystem -- route it through io::File / "
         "io::Dir so fault injection and recovery can see it");
  }
}

// ---------------------------------------------------------------------------
// arch-mutation-charged
// ---------------------------------------------------------------------------

/// Machine accessors that charge simulated latency -- the sanctioned way to
/// touch arch state from outside the arch module.
const std::set<std::string> kCharged = {"access", "access_block",
                                        "access_uncached", "atomic_rmw",
                                        "flush_l1", "allocate"};
/// Cold-path host/recovery controls: legal, but inventoried because they
/// change machine state without charging simulated time.
const std::set<std::string> kControl = {
    "reset_stats",    "power_cycle",      "set_observer",
    "set_link_alive", "set_link_degrade"};

/// Names that denote an arch::Machine in this codebase (locals, members,
/// and the ubiquitous `machine()` accessor on sim state).
bool is_machine_receiver(const std::vector<Token>& t, std::size_t i) {
  if (t[i].kind != Token::Kind::kIdent) return false;
  const std::string& id = t[i].text;
  if (id != "machine" && id != "machine_" && id != "mach") return false;
  // Qualified names (arch::machine) and member names after ./-> still count:
  // `st.machine().perf()` reaches the machine either way.  But skip the
  // *declaration* `Machine& machine` (prev token is `&` or an ident).
  if (i > 0 && t[i - 1].kind == Token::Kind::kIdent) return false;
  return true;
}

/// Walks a postfix chain starting after the receiver at `i` (which may be a
/// call: `machine()`), collecting member names until the chain ends.
/// Returns the index one past the chain.
std::size_t walk_chain(const std::vector<Token>& t, std::size_t i,
                       std::vector<std::pair<std::string, int>>& members) {
  std::size_t j = i + 1;
  while (j < t.size()) {
    if (t[j].kind == Token::Kind::kPunct && t[j].text == "(") {
      int depth = 1;
      ++j;
      while (j < t.size() && depth > 0) {
        if (t[j].kind == Token::Kind::kPunct) {
          if (t[j].text == "(") ++depth;
          if (t[j].text == ")") --depth;
        }
        ++j;
      }
      continue;
    }
    if (t[j].kind == Token::Kind::kPunct &&
        (t[j].text == "." || t[j].text == "->") && j + 1 < t.size() &&
        t[j + 1].kind == Token::Kind::kIdent) {
      members.emplace_back(t[j + 1].text, t[j + 1].line);
      j += 2;
      continue;
    }
    break;
  }
  return j;
}

/// Records perf-counter aliases: `arch::PerfCounters& perf = ...;` and
/// `auto& perf = <chain>.perf();` both make `perf.loads++` a counter bump.
void collect_perf_aliases(const std::vector<Token>& t,
                          std::set<std::string>& aliases) {
  for (std::size_t i = 0; i + 3 < t.size(); ++i) {
    const bool typed = t[i].kind == Token::Kind::kIdent &&
                       t[i].text == "PerfCounters";
    const bool deduced = t[i].kind == Token::Kind::kIdent &&
                         t[i].text == "auto";
    if (!typed && !deduced) continue;
    if (!(t[i + 1].kind == Token::Kind::kPunct && t[i + 1].text == "&"))
      continue;
    if (t[i + 2].kind != Token::Kind::kIdent) continue;
    if (!(t[i + 3].kind == Token::Kind::kPunct && t[i + 3].text == "="))
      continue;
    if (deduced) {
      // Only an alias if the initializer ends in `.perf()`.
      bool ends_in_perf = false;
      for (std::size_t j = i + 4; j < t.size(); ++j) {
        if (t[j].kind == Token::Kind::kPunct && t[j].text == ";") break;
        if (t[j].kind == Token::Kind::kIdent && t[j].text == "perf" &&
            j + 1 < t.size() && t[j + 1].kind == Token::Kind::kPunct &&
            t[j + 1].text == "(") {
          ends_in_perf = true;
        }
      }
      if (!ends_in_perf) continue;
    }
    aliases.insert(t[i + 2].text);
  }
}

/// Classifies what follows a counter-field chain end: ++/--/+=/-= is an
/// accumulation, plain = is an uncharged overwrite, anything else a read.
enum class WriteKind { kNone, kAccum, kAssign };
WriteKind write_after(const std::vector<Token>& t, std::size_t chain_end,
                      std::size_t recv, bool* prefix_incr) {
  *prefix_incr = false;
  if (recv > 0 && t[recv - 1].kind == Token::Kind::kPunct &&
      (t[recv - 1].text == "++" || t[recv - 1].text == "--")) {
    *prefix_incr = true;
    return WriteKind::kAccum;
  }
  if (chain_end >= t.size() || t[chain_end].kind != Token::Kind::kPunct)
    return WriteKind::kNone;
  const std::string& p = t[chain_end].text;
  if (p == "++" || p == "--" || p == "+=" || p == "-=") return WriteKind::kAccum;
  if (p == "=") return WriteKind::kAssign;
  return WriteKind::kNone;
}

void check_arch_mutation(const SourceFile& f, Result& res) {
  static const char kCheck[] = "arch-mutation-charged";
  // Inside the arch module, state mutation is the module's own business;
  // tests may use the test-mutation hook by design.
  if (!starts_with(f.path, "src/")) return;
  if (starts_with(f.path, "src/spp/arch/")) return;
  const std::string module = module_of(f.path);

  const auto& t = f.toks;
  std::set<std::string> perf_aliases;
  collect_perf_aliases(t, perf_aliases);

  auto record = [&](int line, const std::string& expr,
                    const std::string& kind) {
    res.sites.push_back({f.path, line, module, expr, kind});
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    // Perf-alias writes: `perf.loads += n;`
    if (t[i].kind == Token::Kind::kIdent && perf_aliases.count(t[i].text) &&
        !(i > 0 && t[i - 1].kind == Token::Kind::kPunct &&
          (t[i - 1].text == "." || t[i - 1].text == "->")) &&
        i + 1 < t.size() && t[i + 1].kind == Token::Kind::kPunct &&
        (t[i + 1].text == "." || t[i + 1].text == "->")) {
      std::vector<std::pair<std::string, int>> members;
      std::size_t end = walk_chain(t, i, members);
      if (!members.empty()) {
        bool prefix = false;
        WriteKind w = write_after(t, end, i, &prefix);
        const auto& [field, line] = members.back();
        if (w == WriteKind::kAccum) {
          record(line, field, "counter");
        } else if (w == WriteKind::kAssign) {
          record(line, field, "uncharged");
          emit(res, f, kCheck, line,
               "plain '=' overwrite of perf counter '" + field +
                   "'; counters accumulate (++/+=) so resume and digest "
                   "replay stay exact -- or go through "
                   "Machine::reset_stats()");
        }
        i = end - 1;
      }
      continue;
    }

    if (!is_machine_receiver(t, i)) continue;
    std::vector<std::pair<std::string, int>> members;
    std::size_t end = walk_chain(t, i, members);
    if (members.empty()) continue;

    bool in_perf = false;
    bool classified = false;
    for (std::size_t m = 0; m < members.size() && !classified; ++m) {
      const auto& [name, line] = members[m];
      if (kCharged.count(name) != 0) {
        record(line, name, "charged");
        classified = true;
      } else if (kControl.count(name) != 0) {
        record(line, name, "control");
        classified = true;
      } else if (name == "set_test_mutation") {
        record(line, name, "forbidden");
        emit(res, f, kCheck, line,
             "'set_test_mutation' injects protocol corruption; it is a "
             "tests-only hook and must not be reachable from simulation "
             "code");
        classified = true;
      } else if (name == "perf") {
        in_perf = true;
      } else if (in_perf && m + 1 == members.size()) {
        // Last member after .perf(): a counter field.
        bool prefix = false;
        WriteKind w = write_after(t, end, i, &prefix);
        if (w == WriteKind::kAccum) {
          record(line, name, "counter");
        } else if (w == WriteKind::kAssign) {
          record(line, name, "uncharged");
          emit(res, f, kCheck, line,
               "plain '=' overwrite of perf counter '" + name +
                   "'; counters accumulate (++/+=) so resume and digest "
                   "replay stay exact -- or go through "
                   "Machine::reset_stats()");
        }
        classified = true;
      }
    }
    i = end - 1;
  }
}

// ---------------------------------------------------------------------------
// digest-iter-determinism
// ---------------------------------------------------------------------------

struct FuncDef {
  std::string name;
  const SourceFile* file;
  std::size_t body_begin;  ///< index of the opening `{`
  std::size_t body_end;    ///< index one past the matching `}`
};

/// Skips a balanced token group starting at `i` (which must be open).
std::size_t skip_balanced(const std::vector<Token>& t, std::size_t i,
                          const char* open, const char* close) {
  int depth = 0;
  while (i < t.size()) {
    if (t[i].kind == Token::Kind::kPunct) {
      if (t[i].text == open) ++depth;
      if (t[i].text == close && --depth == 0) return i + 1;
    }
    ++i;
  }
  return i;
}

/// Extracts function definitions: `ident ( ... ) [specifiers|ctor-inits] {`.
void collect_defs(const SourceFile& f, std::vector<FuncDef>& defs) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent || is_keyword(t[i].text)) continue;
    if (!(t[i + 1].kind == Token::Kind::kPunct && t[i + 1].text == "("))
      continue;
    std::size_t after = skip_balanced(t, i + 1, "(", ")");
    if (after >= t.size()) continue;

    // Scan past trailing specifiers / ctor init list to find the body `{`,
    // bailing on anything that marks a declaration or expression instead.
    std::size_t j = after;
    bool is_def = false;
    bool in_inits = false;
    int guard = 0;
    while (j < t.size() && guard++ < 256) {
      const Token& tok = t[j];
      if (tok.kind == Token::Kind::kPunct) {
        if (tok.text == ";" || tok.text == ",") {
          if (!in_inits) break;
          ++j;
          continue;
        }
        if (tok.text == "=") break;  // `= default` / assignment expr.
        if (tok.text == ":" && j == after) {
          in_inits = true;  // ctor init list
          ++j;
          continue;
        }
        if (tok.text == "{") {
          // In an init list, `{` after an identifier or `>` is a braced
          // initializer (`b_{2}`); skip it.  After `)` or `}` it's the body.
          const Token& prev = t[j - 1];
          if (in_inits && (prev.kind == Token::Kind::kIdent ||
                           (prev.kind == Token::Kind::kPunct &&
                            prev.text == ">"))) {
            j = skip_balanced(t, j, "{", "}");
            continue;
          }
          is_def = true;
          break;
        }
        if (tok.text == "(") {  // noexcept(...) / initializer `a_(1)`
          j = skip_balanced(t, j, "(", ")");
          continue;
        }
        ++j;
        continue;
      }
      if (tok.kind == Token::Kind::kIdent) {
        static const std::set<std::string> kSpecifiers = {
            "const", "noexcept", "override", "final", "try", "mutable",
            "volatile", "requires"};
        if (!in_inits && kSpecifiers.count(tok.text) == 0 &&
            !(j > after && t[j - 1].kind == Token::Kind::kPunct &&
              (t[j - 1].text == "->" || t[j - 1].text == "::"))) {
          // `foo() bar` -- not a definition (e.g. a macro invocation).
          break;
        }
        ++j;
        continue;
      }
      ++j;
    }
    if (!is_def) continue;
    std::size_t body_end = skip_balanced(t, j, "{", "}");
    defs.push_back({t[i].text, &f, j, body_end});
    // Don't skip the body: nested lambdas/local funcs are rare and calls
    // inside this body are collected from the def record, not rescanned.
  }
}

/// Declared names of unordered containers, across the whole tree (name-level
/// over-approximation: any range-for over one of these names is suspect).
void collect_unordered_names(const SourceFile& f, std::set<std::string>& out) {
  const auto& t = f.toks;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        !starts_with(t[i].text, "unordered_")) {
      continue;
    }
    // Skip the template argument list, then take the declared name.
    std::size_t j = i + 1;
    if (j < t.size() && t[j].kind == Token::Kind::kPunct && t[j].text == "<") {
      int depth = 0;
      while (j < t.size()) {
        if (t[j].kind == Token::Kind::kPunct) {
          if (t[j].text == "<") ++depth;
          if (t[j].text == ">" && --depth == 0) {
            ++j;
            break;
          }
          if (t[j].text == ">>" && depth >= 2) {
            depth -= 2;
            if (depth == 0) {
              ++j;
              break;
            }
          }
          if (t[j].text == ";") break;  // lost track; give up on this one.
        }
        ++j;
      }
    }
    if (j < t.size() && t[j].kind == Token::Kind::kIdent) {
      out.insert(t[j].text);
    }
  }
}

void check_digest_iter(const std::vector<SourceFile>& files, Result& res) {
  static const char kCheck[] = "digest-iter-determinism";

  std::vector<FuncDef> defs;
  std::map<const SourceFile*, std::set<std::string>> own_names;
  for (const auto& f : files) {
    collect_defs(f, defs);
    collect_unordered_names(f, own_names[&f]);
  }
  // Name matching is scoped to the file plus its included headers: a
  // `threads_` that is an unordered_map in check/race.h must not taint an
  // unrelated `threads_` vector in rt/conductor.cc that never includes it.
  std::map<const SourceFile*, std::set<std::string>> visible;
  for (const auto& f : files) {
    std::set<std::string>& vis = visible[&f];
    vis = own_names[&f];
    for (const auto& [inc, line] : f.includes) {
      (void)line;
      for (const auto& g : files) {
        if (g.path == inc ||
            (g.path.size() > inc.size() + 1 &&
             g.path.compare(g.path.size() - inc.size() - 1, inc.size() + 1,
                            "/" + inc) == 0)) {
          vis.insert(own_names[&g].begin(), own_names[&g].end());
        }
      }
    }
    // The container *types* themselves always make the expression suspect
    // (an `unordered_map<...>{...}` temp in the range position).
    for (const char* n : {"unordered_map", "unordered_set",
                          "unordered_multimap", "unordered_multiset"}) {
      vis.insert(n);
    }
  }

  // Name-level call graph: def name -> names of functions it calls.
  std::map<std::string, std::set<std::string>> calls;
  for (const auto& d : defs) {
    const auto& t = d.file->toks;
    auto& out = calls[d.name];
    for (std::size_t i = d.body_begin; i + 1 < d.body_end && i < t.size();
         ++i) {
      if (t[i].kind == Token::Kind::kIdent && !is_keyword(t[i].text) &&
          t[i + 1].kind == Token::Kind::kPunct && t[i + 1].text == "(") {
        out.insert(t[i].text);
      }
    }
  }

  // Functions reachable from the determinism oracles.  digest() hashes the
  // counters and capture() snapshots memory: any hash-order-dependent
  // iteration under them silently varies the digest across hosts.
  std::set<std::string> reachable;
  std::vector<std::string> work = {"digest", "capture"};
  while (!work.empty()) {
    std::string fn = work.back();
    work.pop_back();
    if (!reachable.insert(fn).second) continue;
    auto it = calls.find(fn);
    if (it == calls.end()) continue;
    for (const auto& callee : it->second) {
      if (reachable.count(callee) == 0) work.push_back(callee);
    }
  }

  // Flag range-for over an unordered container inside a reachable body.
  for (const auto& d : defs) {
    if (reachable.count(d.name) == 0) continue;
    const std::set<std::string>& unordered_names = visible[d.file];
    const auto& t = d.file->toks;
    for (std::size_t i = d.body_begin; i < d.body_end && i < t.size(); ++i) {
      if (!(t[i].kind == Token::Kind::kIdent && t[i].text == "for")) continue;
      if (!(i + 1 < t.size() && t[i + 1].kind == Token::Kind::kPunct &&
            t[i + 1].text == "(")) {
        continue;
      }
      std::size_t close = skip_balanced(t, i + 1, "(", ")");
      // Find a top-level `:` (range-for separator; `::` is its own token).
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = i + 2; j + 1 < close; ++j) {
        if (t[j].kind != Token::Kind::kPunct) continue;
        if (t[j].text == "(" || t[j].text == "[" || t[j].text == "{") ++depth;
        if (t[j].text == ")" || t[j].text == "]" || t[j].text == "}") --depth;
        if (t[j].text == ":" && depth == 0) {
          colon = j;
          break;
        }
      }
      if (colon == 0) continue;  // classic for loop
      for (std::size_t j = colon + 1; j + 1 < close; ++j) {
        if (t[j].kind == Token::Kind::kIdent &&
            unordered_names.count(t[j].text) != 0) {
          emit(res, *d.file, kCheck, t[j].line,
               "range-for over unordered container '" + t[j].text +
                   "' in '" + d.name + "', which is reachable from "
                   "PerfCounters::digest / ckpt::Store::capture; hash order "
                   "varies across hosts and libstdc++ versions -- iterate a "
                   "sorted copy or use FlatMap/std::map");
          break;
        }
      }
    }
  }
}

}  // namespace

Result run_checks(const std::vector<SourceFile>& files) {
  Result res;
  for (const auto& f : files) {
    check_wallclock(f, res);
    check_host_thread(f, res);
    check_posix_io(f, res);
    check_arch_mutation(f, res);
  }
  check_digest_iter(files, res);

  std::sort(res.findings.begin(), res.findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.check < b.check;
            });
  std::sort(res.sites.begin(), res.sites.end(),
            [](const MutationSite& a, const MutationSite& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line < b.line;
            });
  return res;
}

std::string sites_to_json(const std::vector<MutationSite>& sites) {
  auto escape = [](const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  };
  std::ostringstream os;
  os << "{\n  \"generated_by\": \"spp-lint\",\n  \"schema\": 1,\n"
     << "  \"sites\": [";
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto& s = sites[i];
    os << (i == 0 ? "\n" : ",\n");
    os << "    {\"file\": \"" << escape(s.file) << "\", \"line\": " << s.line
       << ", \"module\": \"" << escape(s.module) << "\", \"kind\": \""
       << escape(s.kind) << "\", \"expr\": \"" << escape(s.expr) << "\"}";
  }
  os << (sites.empty() ? "]\n}\n" : "\n  ]\n}\n");
  return os.str();
}

}  // namespace spplint
