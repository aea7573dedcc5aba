#pragma once

// metrolint v2: the whole-program model and passes.
//
// v1's rules are per-line and per-file; the three v2 passes need to see the
// tree at once. BuildProgram() runs a scope-tracking lexical scan over every
// source file and produces:
//
//   - every function definition (enclosing class resolved, METRO_NOALLOC /
//     METRO_REQUIRES annotations captured, lambdas split out as anonymous
//     leaf functions so async bodies are not attributed to their spawner),
//   - per-function event streams: lock acquisitions (`MutexLock l(mu_)`,
//     with early Unlock()/re-Lock() regions), calls, allocation sites, and
//     raw blocking tokens,
//   - a name-indexed call graph filtered by the #include reachability
//     closure (a call resolves only to definitions the caller's translation
//     unit could actually see),
//   - every `Mutex field{lockrank::kX, "name"}` declaration plus the
//     constants in src/util/lock_ranks.h, so the declared runtime ranks are
//     cross-checked against metrolint.toml.
//
// Lock identity is "Class::field" for member mutexes ("Dataset::mu" for a
// pointee field reached via ->), "file:expr" for free-function/file-local
// locks ("src/util/logging.cpp:OutputMutex()", "src/graph/pregel.h:
// outbox_mu[]" with indices normalized away).
//
// The passes (see RunLockOrder / RunNoallocInterproc /
// RunBlockingWhileLocked) are documented in DESIGN.md "metrolint v2
// whole-program passes". They report findings only for src/ and examples/
// anchors; bench/ and tests/ functions still participate in the model (a
// test calling into src/ contributes real edges) but their own ad-hoc locks
// are not ranked and not reported on.

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common.h"

namespace metrolint {

struct SourceFile {
  std::string rel;   // repo-relative path, forward slashes
  std::string text;  // raw contents
};

// One lock-acquisition site and the regions over which it is held.
struct LockSite {
  std::string lock_id;  // resolved identity (see header comment)
  int line = 0;
  std::vector<std::pair<std::size_t, std::size_t>> regions;  // [begin,end)
};

struct CallSite {
  std::string name;      // callee token, possibly "A::b" qualified
  std::string receiver;  // explicit receiver token ("" = plain / implicit)
  int line = 0;
  std::size_t pos = 0;
};

struct AllocSite {
  std::string what;
  int line = 0;
};

// A raw blocking token ([blocking] functions) or a CondVar-style
// `x.Wait(mu)` (wait_arg_lock carries the resolved mutex identity).
struct BlockSite {
  std::string token;
  std::string wait_arg_lock;  // non-empty only for Wait(mu) sites
  int line = 0;
  std::size_t pos = 0;
};

// A ranked Mutex field declaration: `Mutex mu_{lockrank::kX, "name"};`.
struct MutexFieldDecl {
  std::string id;          // "Class::field"
  std::string rank_const;  // "kX" ("" when declared without an initializer)
  std::string name;        // the declared lock-name literal ("" if none)
  std::string file;
  int line = 0;
};

// Any class- or namespace-scope declaration statement without a parameter
// list (fields, statics, globals). The v3 view-escape pass filters these by
// declared view-type tokens; the raw statement text keeps the pass lexical.
struct FieldDecl {
  std::string cls;   // enclosing class chain ("" at namespace/global scope)
  std::string text;  // trimmed statement text (literals stripped)
  std::string file;
  int line = 0;
};

struct Func {
  std::string file;
  std::string cls;   // enclosing class ("" for free functions)
  std::string name;  // unqualified
  std::string qual;  // cls.empty() ? name : cls + "::" + name
  std::string ret;   // head text before the (qualified) name: the return type
  int line = 0;
  bool noalloc = false;
  bool is_lambda = false;
  std::size_t body_begin = 0;  // byte offsets into Program::code[file]
  std::size_t body_end = 0;
  // Nested lambda bodies (excluded from this body's own event stream).
  std::vector<std::pair<std::size_t, std::size_t>> lambda_bodies;
  std::vector<std::string> requires_locks;  // held on entry (METRO_REQUIRES)
  std::vector<LockSite> acquires;
  std::vector<CallSite> calls;
  std::vector<AllocSite> allocs;
  std::vector<BlockSite> blocking;
  std::vector<std::vector<int>> resolved;  // per CallSite: callee func idxs
};

struct Program {
  std::vector<Func> funcs;
  std::map<std::string, std::vector<int>> by_name;  // unqualified name -> idx
  std::map<std::string, std::vector<int>> by_qual;  // "Class::name" -> idx
  std::map<std::string, std::set<std::string>> reach;  // file -> visible files
  std::vector<MutexFieldDecl> mutex_decls;
  std::vector<FieldDecl> field_decls;
  std::map<std::string, int> rank_consts;  // lock_ranks.h: "kX" -> value
  // Preprocessed, literal-stripped text per file (Func offsets index into
  // this); kept so the v3 passes can re-scan statement context.
  std::map<std::string, std::string> code;
};

// Builds the model and resolves the call graph. Deterministic: files must
// arrive sorted by rel path.
Program BuildProgram(const std::vector<SourceFile>& files, const Config& cfg);

// Pass 1: lock-order / deadlock analysis. Derives the global
// acquired-while-holding graph, checks every edge against the declared
// partial order ([locks] ranks), reports cycles with full witness chains,
// demands a rank for every lock acquired under src/, and cross-checks the
// in-code lockrank:: constants against the config. When `dot_out` is
// non-null it receives the lock graph in Graphviz DOT form.
void RunLockOrder(const Program& prog, const Config& cfg,
                  std::vector<Finding>* out, std::string* dot_out);

// Pass 2: interprocedural METRO_NOALLOC. Flags an annotated function whose
// un-annotated (and un-excepted) transitive callees allocate, with the call
// path to the offending site.
void RunNoallocInterproc(const Program& prog, const Config& cfg,
                         std::vector<Finding>* out);

// Pass 3: blocking-while-locked. Flags configured blocking calls (bare
// tokens, qualified entry points, and transitive paths to them) plus
// CondVar waits on a *different* mutex, made while any lock is held.
void RunBlockingWhileLocked(const Program& prog, const Config& cfg,
                            std::vector<Finding>* out);

// Seeded-violation fixtures for the three v2 passes (multi-file programs
// with an embedded config). Returns the number of failures.
int RunSelftestV2();

// --- v3 passes (views.cpp) -------------------------------------------------
//
// The three view/status passes run over the same Program model. [views] in
// metrolint.toml declares borrowed-view -> owner type pairs, [invalidates]
// declares the owner methods that free a view's storage, and
// [status_exceptions] whitelists (void)-cast Status discards. See DESIGN.md
// "View ownership & invalidation (metrolint v3)".

// Pass 4: view-escape. Flags declared view types stored into class members /
// statics / containers, views over a local owner returned out of the frame,
// and view locals captured by lambdas handed to [views] sinks
// (ThreadPool::Submit, std::thread, ...). When `dot_out` is non-null it
// receives the declared view-ownership graph in Graphviz DOT form.
void RunViewEscape(const Program& prog, const Config& cfg,
                   std::vector<Finding>* out, std::string* dot_out);

// Pass 5: invalidation. Reports a live view variable used after an
// [invalidates] method ran on its owner along the lexical path, propagated
// interprocedurally through callees known to invalidate the owner type.
void RunInvalidation(const Program& prog, const Config& cfg,
                     std::vector<Finding>* out);

// Pass 6: unchecked-status. Flags `(void)` casts discarding the value of a
// call that resolves to util::Status / Result returners unless a
// [status_exceptions] entry carries a justification. Bare discards are left
// to [[nodiscard]] under -Werror=unused-result.
void RunUncheckedStatus(const Program& prog, const Config& cfg,
                        std::vector<Finding>* out);

// Seeded fixtures for the v3 passes. Returns the number of failures.
int RunSelftestV3();

}  // namespace metrolint
