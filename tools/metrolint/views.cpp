// metrolint v3: view-ownership, invalidation, and unchecked-Status passes.
//
// The zero-copy surfaces (TensorView over Workspace arenas, BatchView /
// RecordView over pinned RecordBatches, LsmIterator over refcounted LSM
// versions, string_view over util::bytes buffers) are all *borrows*: cheap
// to pass around, catastrophic to outlive their owner. [[clang::lifetimebound]]
// only catches same-expression dangling, so these passes close the gap
// lexically over the same whole-program model the v2 lock passes use:
//
//   view-escape       a [views] section declares view -> owner type pairs;
//                     the pass flags views stored into members / statics /
//                     containers, views over a *local* owner returned out of
//                     the frame, and view locals captured by lambdas handed
//                     to [views] sinks (ThreadPool::Submit, std::thread, ...).
//   invalidation      [invalidates] declares the owner methods that free a
//                     view's storage (Workspace::Rewind, RecordBatch::Seal,
//                     ...); the pass reports a live view variable used after
//                     an invalidator ran on its owner along the lexical
//                     path, propagated interprocedurally through callees
//                     known to invalidate the owner type.
//   unchecked-status  `(void)` casts discarding the value of a call that
//                     resolves to util::Status / Result<T> returners; one is
//                     only accepted when a justified [status_exceptions]
//                     entry exists. Bare discards are the compiler's half:
//                     [[nodiscard]] under -Werror=unused-result rejects
//                     them (tests/static/status_discard_fail.cpp).
//
// Everything is a deliberate lexical approximation (no types, no dataflow):
// owners are receiver *tokens*, paths are source order, and aliasing through
// pointers is invisible. The escape hatches ([view_exceptions],
// [invalidation_exceptions], [status_exceptions]) all require a non-empty
// justification, and the METRO_VIEW_CHECK runtime generation counters
// cross-validate the static claims the approximation cannot prove.
//
// Like v2, findings anchor only to src/ + bench/ + examples/ — tests/
// deliberately exercise use-after-invalidation in death tests and must not
// have to baseline their own fixtures.

#include "wholeprogram.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace metrolint {
namespace {

std::string Trim(std::string s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string LastComp(const std::string& q) {
  const std::size_t p = q.rfind("::");
  return p == std::string::npos ? q : q.substr(p + 2);
}

// v3 findings anchor to src/, bench/ and examples/. tests/ participates in
// the model but deliberately uses views after invalidation (death tests).
bool ReportableV3(const std::string& file) {
  return file.rfind("src/", 0) == 0 || file.rfind("bench/", 0) == 0 ||
         file.rfind("examples/", 0) == 0;
}

// Index (not char) of the last non-space character strictly before pos.
std::size_t PrevNonSpacePos(std::string_view text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (!std::isspace(static_cast<unsigned char>(text[pos]))) return pos;
  }
  return std::string::npos;
}

// Matching close delimiter for the open bracket at `open`; `limit` on miss.
std::size_t CloseDelim(std::string_view text, std::size_t open,
                       std::size_t limit) {
  const char oc = text[open];
  const char cc = oc == '(' ? ')' : oc == '{' ? '}' : ']';
  int depth = 0;
  for (std::size_t k = open; k < limit; ++k) {
    if (text[k] == oc) {
      ++depth;
    } else if (text[k] == cc && --depth == 0) {
      return k;
    }
  }
  return limit;
}

// Body segments of `f` with nested lambda bodies cut out, so a parent's
// statements are scanned exactly once and lambda statements belong to the
// lambda's own Func.
std::vector<std::pair<std::size_t, std::size_t>> SegsOf(const Func& f) {
  std::vector<std::pair<std::size_t, std::size_t>> segs;
  auto children = f.lambda_bodies;
  std::sort(children.begin(), children.end());
  std::size_t cur = f.body_begin;
  for (const auto& [cb, ce] : children) {
    if (cb > cur) segs.emplace_back(cur, cb);
    cur = std::max(cur, ce);
  }
  if (f.body_end > cur) segs.emplace_back(cur, f.body_end);
  return segs;
}

// Invokes fn(pos, token) for every identifier token in text[b, e).
template <typename Fn>
void ForEachToken(std::string_view text, std::size_t b, std::size_t e,
                  Fn&& fn) {
  e = std::min(e, text.size());
  for (std::size_t i = b; i < e; ++i) {
    if (!IsIdentChar(text[i]) || (i > 0 && IsIdentChar(text[i - 1]))) continue;
    std::size_t j = i;
    while (j < e && IsIdentChar(text[j])) ++j;
    fn(i, text.substr(i, j - i));
    i = j - 1;
  }
}

bool HasTok(std::string_view text, std::string_view tok) {
  std::size_t p = text.find(tok);
  while (p != std::string::npos) {
    if (IsWholeToken(text, p, tok.size())) return true;
    p = text.find(tok, p + 1);
  }
  return false;
}

// A declared view type: qualified names from [views] plus the bare lexical
// tokens the passes actually match on.
struct VT {
  std::string view_qual;
  std::string owner_qual;
  std::string view_tok;
  std::string owner_tok;
};

std::vector<VT> MakeViewTypes(const Config& cfg) {
  std::vector<VT> out;
  for (const auto& [v, o] : cfg.views) {
    out.push_back(VT{v, o, LastComp(v), LastComp(o)});
  }
  return out;
}

const VT* ByViewTok(const std::vector<VT>& vts, std::string_view tok) {
  for (const VT& vt : vts) {
    if (vt.view_tok == tok) return &vt;
  }
  return nullptr;
}

// View producers, derived from the model rather than configured: a method of
// an owner class whose return type names a view type mints a fresh view over
// its receiver (ws.AllocView(n)); a method of a view class returning a view
// derives one that inherits the receiver's owner (v.Reshaped(...)).
struct Producers {
  std::map<std::string, const VT*> owner_methods;
  std::map<std::string, const VT*> view_methods;
};

Producers MakeProducers(const Program& prog, const std::vector<VT>& vts) {
  Producers p;
  for (const Func& f : prog.funcs) {
    if (f.is_lambda || f.cls.empty() || f.ret.empty()) continue;
    const VT* out = nullptr;
    for (const VT& vt : vts) {
      if (HasTok(f.ret, vt.view_tok)) {
        out = &vt;
        break;
      }
    }
    if (out == nullptr) continue;
    const std::string ctok = LastComp(f.cls);
    bool owner_cls = false, view_cls = false;
    for (const VT& vt : vts) {
      owner_cls = owner_cls || vt.owner_tok == ctok;
      view_cls = view_cls || vt.view_tok == ctok;
    }
    if (owner_cls) {
      p.owner_methods.emplace(f.name, out);
    } else if (view_cls) {
      p.view_methods.emplace(f.name, out);
    }
  }
  return p;
}

// A tracked view variable local to one function body.
struct ViewLocal {
  std::string name;
  const VT* vt = nullptr;
  std::string owner;      // receiver token of the producing call ("" unknown)
  std::size_t name_pos = 0;
  int line = 0;
};

struct Derived {
  std::string owner;
  const VT* vt = nullptr;
};

// Walks an initializer expression for a producing call (recv.M(...) with M a
// producer method) or a bare alias of an already-tracked view local.
Derived DeriveOwner(std::string_view text, std::size_t b, std::size_t e,
                    const Producers& prod,
                    const std::vector<ViewLocal>& locals) {
  Derived d;
  std::string first_tok;
  ForEachToken(text, b, e, [&](std::size_t pos, std::string_view tok) {
    if (d.vt != nullptr) return;
    if (first_tok.empty()) first_tok = std::string(tok);
    const char prev = PrevNonSpace(text, pos);
    const bool member =
        prev == '.' || (prev == '>' && pos >= 2 && text[pos - 2] == '-');
    if (!member || NextNonSpace(text, pos + tok.size()) != '(') return;
    // Receiver: the single identifier token before the '.' / '->'.
    std::size_t cp = PrevNonSpacePos(text, pos);
    if (cp != std::string::npos && text[cp] == '>') --cp;  // '->'
    std::size_t re = cp;  // points at '.' or '-'
    while (re > 0 && std::isspace(static_cast<unsigned char>(text[re - 1]))) {
      --re;
    }
    std::size_t rb = re;
    while (rb > 0 && IsIdentChar(text[rb - 1])) --rb;
    const std::string recv(text.substr(rb, re - rb));
    const std::string m(tok);
    if (auto it = prod.owner_methods.find(m); it != prod.owner_methods.end()) {
      d.owner = recv;
      d.vt = it->second;
    } else if (auto it2 = prod.view_methods.find(m);
               it2 != prod.view_methods.end()) {
      for (const ViewLocal& l : locals) {
        if (l.name == recv) {
          d.owner = l.owner;
          break;
        }
      }
      d.vt = it2->second;
    }
  });
  if (d.vt == nullptr && !first_tok.empty()) {
    for (const ViewLocal& l : locals) {
      if (l.name == first_tok) {
        d.owner = l.owner;
        d.vt = l.vt;
        break;
      }
    }
  }
  return d;
}

// Collects explicitly-typed view declarations (`TensorView v = ...;`,
// references allowed, pointers skipped) and `auto v = <producer call>` in
// source order, so later initializers can alias earlier locals.
std::vector<ViewLocal> CollectViewLocals(
    const Func& f, const std::string& code,
    const std::vector<std::pair<std::size_t, std::size_t>>& segs,
    const std::vector<VT>& vts, const Producers& prod) {
  std::vector<ViewLocal> out;
  auto initializer_end = [&](std::size_t from) {
    int depth = 0;
    for (std::size_t k = from; k < code.size(); ++k) {
      const char c = code[k];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        if (depth == 0) return k;  // range-for close paren
        --depth;
      }
      if (c == ';' && depth == 0) return k;
    }
    return code.size();
  };
  for (const auto& [sb, se] : segs) {
    ForEachToken(code, sb, se, [&](std::size_t pos, std::string_view tok) {
      const VT* vt = ByViewTok(vts, tok);
      const bool is_auto = tok == "auto";
      if (vt == nullptr && !is_auto) return;
      const char prev = PrevNonSpace(code, pos);
      if (prev == '<' || prev == ',') return;  // template argument position
      std::size_t q = pos + tok.size();
      while (q < se && std::isspace(static_cast<unsigned char>(code[q]))) ++q;
      while (q < se && code[q] == '&') {
        ++q;
        while (q < se && std::isspace(static_cast<unsigned char>(code[q]))) {
          ++q;
        }
      }
      if (q >= se || code[q] == '*' || !IsIdentChar(code[q]) ||
          std::isdigit(static_cast<unsigned char>(code[q]))) {
        return;
      }
      std::size_t ne = q;
      while (ne < se && IsIdentChar(code[ne])) ++ne;
      const std::string name = code.substr(q, ne - q);
      std::size_t k = ne;
      while (k < se && std::isspace(static_cast<unsigned char>(code[k]))) ++k;
      if (k >= se) return;
      std::size_t ib = 0, ie = 0;
      if (code[k] == '=' && k + 1 < se && code[k + 1] != '=') {
        ib = k + 1;
        ie = initializer_end(ib);
      } else if (code[k] == '(' || code[k] == '{') {
        ib = k + 1;
        ie = CloseDelim(code, k, se);
      } else if (code[k] == ':' && k + 1 < se && code[k + 1] != ':') {
        ib = k + 1;  // range-for
        ie = initializer_end(ib);
      } else if (code[k] == ';' && !is_auto) {
        out.push_back(ViewLocal{name, vt, "", q, LineOf(code, q)});
        return;
      } else {
        return;
      }
      const Derived d = DeriveOwner(code, ib, ie, prod, out);
      if (is_auto) {
        if (d.vt == nullptr) return;  // auto that isn't a view
        vt = d.vt;
      }
      out.push_back(ViewLocal{name, vt, d.owner, q, LineOf(code, q)});
    });
  }
  return out;
}

std::string FuncLabel(const Func& f) {
  return f.qual.empty() ? (f.is_lambda ? "<lambda>" : f.name) : f.qual;
}

}  // namespace

// ---------------------------------------------------------------------------
// Pass 4: view-escape
// ---------------------------------------------------------------------------

void RunViewEscape(const Program& prog, const Config& cfg,
                   std::vector<Finding>* out, std::string* dot_out) {
  const std::vector<VT> vts = MakeViewTypes(cfg);
  if (dot_out != nullptr) {
    std::ostringstream dot;
    dot << "digraph metrolint_views {\n  rankdir=LR;\n"
        << "  node [fontname=\"Helvetica\", fontsize=11];\n";
    for (const VT& vt : vts) {
      dot << "  \"" << vt.view_qual << "\" [shape=box];\n"
          << "  \"" << vt.owner_qual << "\" [shape=ellipse, style=filled, "
          << "fillcolor=\"#e8f0fe\"];\n"
          << "  \"" << vt.view_qual << "\" -> \"" << vt.owner_qual
          << "\" [label=\"borrows\"];\n";
    }
    for (const auto& [qual, desc] : cfg.invalidates) {
      const std::string cls = LastComp(
          qual.substr(0, qual.rfind("::") == std::string::npos
                             ? 0
                             : qual.rfind("::")));
      dot << "  \"" << qual << "\" [shape=octagon, color=red];\n";
      for (const VT& vt : vts) {
        if (vt.owner_tok == cls) {
          dot << "  \"" << vt.owner_qual << "\" -> \"" << qual
              << "\" [label=\"invalidated by\", color=red];\n";
          break;
        }
      }
    }
    for (const std::string& s : cfg.view_sinks) {
      dot << "  \"sink: " << s << "\" [shape=diamond, color=gray];\n";
    }
    dot << "}\n";
    *dot_out = dot.str();
  }
  if (vts.empty()) return;
  const Producers prod = MakeProducers(prog, vts);

  // (a) view types stored into class members / statics / globals. The raw
  // FieldDecl statements cover both (`TensorView view_;` in a class,
  // `inline TensorView g;` at namespace scope); constexpr statements are
  // compile-time constants (string_view literals) and are skipped.
  for (const FieldDecl& fd : prog.field_decls) {
    if (!ReportableV3(fd.file)) continue;
    const std::string& t = fd.text;
    if (HasTok(t, "constexpr")) continue;
    for (const VT& vt : vts) {
      if (!HasTok(t, vt.view_tok)) continue;
      // Field name: last identifier token before the first top-level
      // initializer ('=' or '{'), depth-tracked so template args and array
      // bounds don't confuse it.
      std::string field;
      int depth = 0;
      for (std::size_t k = 0; k < t.size(); ++k) {
        const char c = t[k];
        if (c == '<' || c == '(' || c == '[') ++depth;
        if (c == '>' || c == ')' || c == ']') --depth;
        if (depth == 0 && (c == '=' || c == '{')) break;
        if (IsIdentChar(c) && (k == 0 || !IsIdentChar(t[k - 1]))) {
          std::size_t j = k;
          while (j < t.size() && IsIdentChar(t[j])) ++j;
          field = t.substr(k, j - k);
          k = j - 1;
        }
      }
      if (field.empty() || field == vt.view_tok) break;  // fwd decl etc.
      const std::string key =
          fd.cls.empty() ? fd.file + ":" + field : fd.cls + "::" + field;
      if (cfg.view_exceptions.count(key) != 0 ||
          (!fd.cls.empty() && cfg.view_exceptions.count(fd.cls + "::*") != 0)) {
        break;
      }
      Report(out, fd.file, fd.line, "view-escape",
             "borrowed view type '" + vt.view_qual + "' stored in " +
                 (fd.cls.empty() ? "file-scope variable '" : "member '") +
                 key + "' — a " + vt.view_tok +
                 " must not outlive its owner " + vt.owner_qual +
                 "; own the storage (or a refcounted pin) instead, or add a "
                 "justified [view_exceptions] entry");
      break;
    }
  }

  // (b) + (c) need per-function view locals.
  for (const Func& f : prog.funcs) {
    if (f.is_lambda || !ReportableV3(f.file) || f.body_end <= f.body_begin) {
      continue;
    }
    const auto cit = prog.code.find(f.file);
    if (cit == prog.code.end()) continue;
    const std::string& code = cit->second;
    const auto segs = SegsOf(f);
    const std::vector<ViewLocal> locals =
        CollectViewLocals(f, code, segs, vts, prod);

    // (b) returning a view over a local owner. Parameters are not locals —
    // `TensorView Cut(Workspace& ws) { return ws.AllocView(n); }` is the
    // blessed shape; `Workspace ws; ... return ws.AllocView(n);` dangles.
    const VT* rvt = nullptr;
    for (const VT& vt : vts) {
      if (HasTok(f.ret, vt.view_tok)) {
        rvt = &vt;
        break;
      }
    }
    if (rvt != nullptr && cfg.view_exceptions.count(f.qual) == 0) {
      std::set<std::string> owner_locals;
      for (const auto& [sb, se] : segs) {
        ForEachToken(code, sb, se, [&](std::size_t pos, std::string_view tk) {
          bool is_owner = false;
          for (const VT& vt : vts) {
            is_owner = is_owner || vt.owner_tok == tk;
          }
          if (!is_owner) return;
          std::size_t q = pos + tk.size();
          while (q < se && std::isspace(static_cast<unsigned char>(code[q]))) {
            ++q;
          }
          if (q >= se || code[q] == '&' || code[q] == '*' ||
              !IsIdentChar(code[q])) {
            return;  // reference / pointer binding: not frame-owned
          }
          std::size_t ne = q;
          while (ne < se && IsIdentChar(code[ne])) ++ne;
          const char after = NextNonSpace(code, ne);
          if (after == ';' || after == '(' || after == '{' || after == '=') {
            owner_locals.insert(code.substr(q, ne - q));
          }
        });
      }
      if (!owner_locals.empty()) {
        for (const auto& [sb, se] : segs) {
          ForEachToken(code, sb, se, [&](std::size_t pos,
                                         std::string_view tk) {
            if (tk != "return") return;
            std::size_t q = pos + tk.size();
            while (q < se &&
                   (std::isspace(static_cast<unsigned char>(code[q])) ||
                    code[q] == '(' || code[q] == '*' || code[q] == '&')) {
              ++q;
            }
            if (q >= se || !IsIdentChar(code[q])) return;
            std::size_t ne = q;
            while (ne < se && IsIdentChar(code[ne])) ++ne;
            const std::string root = code.substr(q, ne - q);
            std::string via;
            if (owner_locals.count(root) != 0) {
              const char nx = NextNonSpace(code, ne);
              if (nx == '.' || nx == '-') via = root;  // ws.AllocView(...)
            } else {
              for (const ViewLocal& l : locals) {
                if (l.name == root && owner_locals.count(l.owner) != 0) {
                  via = l.owner;
                  break;
                }
              }
            }
            if (via.empty()) return;
            Report(out, f.file, LineOf(code, pos), "view-escape",
                   "in '" + FuncLabel(f) + "': returns a " + rvt->view_qual +
                       " derived from local owner '" + via +
                       "' — the owner dies with this frame and the view "
                       "dangles; return owning storage or take the owner as "
                       "a parameter (or add a [view_exceptions] entry "
                       "keyed '" + f.qual + "')");
          });
        }
      }
    }

    // (c) view locals captured by lambdas handed to escape sinks.
    if (locals.empty() || f.lambda_bodies.empty()) continue;
    for (const std::string& sink : cfg.view_sinks) {
      for (const auto& [sb, se] : segs) {
        std::size_t p = code.find(sink, sb);
        while (p != std::string::npos && p < se) {
          const std::size_t hit = p;
          p = code.find(sink, p + 1);
          if (!IsWholeToken(code, hit, sink.size())) continue;
          // Call form `Submit(...)` or declarator form `thread t(...)`.
          std::size_t open = hit + sink.size();
          while (open < code.size() &&
                 std::isspace(static_cast<unsigned char>(code[open]))) {
            ++open;
          }
          if (open < code.size() && IsIdentChar(code[open])) {
            while (open < code.size() && IsIdentChar(code[open])) ++open;
            while (open < code.size() &&
                   std::isspace(static_cast<unsigned char>(code[open]))) {
              ++open;
            }
          }
          if (open >= code.size() ||
              (code[open] != '(' && code[open] != '{')) {
            continue;
          }
          const std::size_t close = CloseDelim(code, open, f.body_end);
          bool has_lambda = false;
          for (const auto& [cb, ce] : f.lambda_bodies) {
            has_lambda = has_lambda || (cb >= open && ce <= close + 1);
          }
          if (!has_lambda) continue;
          if (cfg.view_exceptions.count(f.qual + " -> " + sink) != 0 ||
              cfg.view_exceptions.count(f.qual) != 0) {
            continue;
          }
          for (const ViewLocal& v : locals) {
            if (v.name_pos >= hit) continue;
            std::size_t vp = code.find(v.name, open);
            bool used = false;
            while (vp != std::string::npos && vp < close) {
              if (IsWholeToken(code, vp, v.name.size())) {
                used = true;
                break;
              }
              vp = code.find(v.name, vp + 1);
            }
            if (!used) continue;
            Report(out, f.file, LineOf(code, hit), "view-escape",
                   "in '" + FuncLabel(f) + "': view '" + v.name + "' (" +
                       v.vt->view_qual +
                       ") is captured by a lambda handed to '" + sink +
                       "' — the task can outlive both the view and its "
                       "owner " + v.vt->owner_qual +
                       "; pass owning storage into the task or add a "
                       "[view_exceptions] entry keyed '" + f.qual + " -> " +
                       sink + "'");
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 5: invalidation
// ---------------------------------------------------------------------------

namespace {

struct DirectInv {
  std::string cls_tok;  // "Workspace"
  std::string qual;     // "Workspace::Rewind"
  std::string desc;     // config justification text
};

struct InvEvent {
  std::size_t pos = 0;
  int line = 0;
  std::set<std::string> owner_toks;  // candidate owner tokens at this site
  std::string cls_tok;               // owner class this event invalidates
  std::string desc;
};

}  // namespace

void RunInvalidation(const Program& prog, const Config& cfg,
                     std::vector<Finding>* out) {
  if (cfg.invalidates.empty() || cfg.views.empty()) return;
  const std::vector<VT> vts = MakeViewTypes(cfg);
  const Producers prod = MakeProducers(prog, vts);

  std::map<std::string, std::vector<DirectInv>> direct;
  for (const auto& [qual, desc] : cfg.invalidates) {
    const std::size_t p = qual.rfind("::");
    if (p == std::string::npos) continue;
    direct[qual.substr(p + 2)].push_back(
        DirectInv{LastComp(qual.substr(0, p)), qual, desc});
  }

  // Transitive closure: inv[i][cls] = callee index through which function i
  // invalidates owners of class `cls` (-1: i *is* a declared invalidator).
  const int n = int(prog.funcs.size());
  std::vector<std::map<std::string, int>> inv;
  inv.resize(std::size_t(n));
  for (const auto& [qual, desc] : cfg.invalidates) {
    const auto it = prog.by_qual.find(qual);
    if (it == prog.by_qual.end()) continue;
    const std::size_t p = qual.rfind("::");
    const std::string cls = LastComp(qual.substr(0, p));
    for (const int i : it->second) inv[std::size_t(i)][cls] = -1;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = 0; i < n; ++i) {
      const Func& f = prog.funcs[std::size_t(i)];
      for (const auto& targets : f.resolved) {
        for (const int j : targets) {
          for (const auto& [cls, via] : inv[std::size_t(j)]) {
            if (i != j && inv[std::size_t(i)].count(cls) == 0) {
              inv[std::size_t(i)][cls] = j;
              changed = true;
            }
          }
        }
      }
    }
  }
  auto path_to_inv = [&](int j, const std::string& cls) {
    std::string path;
    int guard = 0;
    while (j >= 0 && guard++ < 32) {
      const Func& g = prog.funcs[std::size_t(j)];
      if (!path.empty()) path += " -> ";
      path += FuncLabel(g) + " (" + g.file + ":" + std::to_string(g.line) +
              ")";
      const auto it = inv[std::size_t(j)].find(cls);
      if (it == inv[std::size_t(j)].end() || it->second == -1) break;
      j = it->second;
    }
    return path;
  };

  for (const Func& f : prog.funcs) {
    if (!ReportableV3(f.file) || f.body_end <= f.body_begin) continue;
    const auto cit = prog.code.find(f.file);
    if (cit == prog.code.end()) continue;
    const std::string& code = cit->second;
    const auto segs = SegsOf(f);
    const std::vector<ViewLocal> locals =
        CollectViewLocals(f, code, segs, vts, prod);
    if (locals.empty()) continue;

    // Invalidation events in this body, in source order.
    std::vector<InvEvent> events;
    for (std::size_t ci = 0; ci < f.calls.size(); ++ci) {
      const CallSite& cs = f.calls[ci];
      const std::string mname = LastComp(cs.name);
      if (const auto it = direct.find(mname);
          it != direct.end() && !cs.receiver.empty() &&
          cs.receiver != "this") {
        for (const DirectInv& d : it->second) {
          events.push_back(InvEvent{cs.pos, cs.line, {cs.receiver}, d.cls_tok,
                                    cs.receiver + "." + mname + "() [" +
                                        d.desc + "]"});
        }
      }
      if (ci >= f.resolved.size()) continue;
      for (const int j : f.resolved[ci]) {
        for (const auto& [cls, via] : inv[std::size_t(j)]) {
          if (via == -1) continue;  // direct branch above covers these
          std::set<std::string> owners;
          if (!cs.receiver.empty()) owners.insert(cs.receiver);
          std::size_t open = cs.pos;
          while (open < code.size() && IsIdentChar(code[open])) ++open;
          while (open < code.size() &&
                 std::isspace(static_cast<unsigned char>(code[open]))) {
            ++open;
          }
          if (open < code.size() && code[open] == '(') {
            const std::size_t close = CloseDelim(code, open, code.size());
            ForEachToken(code, open + 1, close,
                         [&](std::size_t, std::string_view tk) {
                           if (!std::isdigit(
                                   static_cast<unsigned char>(tk[0]))) {
                             owners.insert(std::string(tk));
                           }
                         });
          }
          if (owners.empty()) continue;
          events.push_back(InvEvent{
              cs.pos, cs.line, std::move(owners), cls,
              "call path " + path_to_inv(j, cls) +
                  " (reaches a declared invalidator of " + cls + ")"});
        }
      }
    }
    if (events.empty()) continue;
    std::sort(events.begin(), events.end(),
              [](const InvEvent& a, const InvEvent& b) { return a.pos < b.pos; });

    for (const ViewLocal& v : locals) {
      if (v.owner.empty()) continue;
      if (cfg.invalidation_exceptions.count(f.qual + " -> " + v.name) != 0) {
        continue;
      }
      // Timeline: occurrences of v (uses / reassignments) merged with the
      // invalidation events, walked in source order.
      struct Entry {
        std::size_t pos;
        int kind;  // 0 event, 1 reassign, 2 use
        int line;
        const InvEvent* ev;
        std::string new_owner;
      };
      std::vector<Entry> tl;
      for (const InvEvent& ev : events) {
        if (ev.pos > v.name_pos) {
          tl.push_back(Entry{ev.pos, 0, ev.line, &ev, ""});
        }
      }
      for (const auto& [sb, se] : segs) {
        std::size_t p = code.find(v.name, std::max(sb, v.name_pos + 1));
        while (p != std::string::npos && p < se) {
          const std::size_t hit = p;
          p = code.find(v.name, p + 1);
          if (!IsWholeToken(code, hit, v.name.size())) continue;
          std::size_t a = hit + v.name.size();
          while (a < se && std::isspace(static_cast<unsigned char>(code[a]))) {
            ++a;
          }
          if (a < se && code[a] == '=' && (a + 1 >= se || code[a + 1] != '=')) {
            const std::size_t ie = code.find(';', a);
            const Derived d = DeriveOwner(
                code, a + 1, ie == std::string::npos ? se : ie, prod, locals);
            tl.push_back(Entry{hit, 1, LineOf(code, hit), nullptr, d.owner});
          } else {
            tl.push_back(Entry{hit, 2, LineOf(code, hit), nullptr, ""});
          }
        }
      }
      std::sort(tl.begin(), tl.end(),
                [](const Entry& a, const Entry& b) { return a.pos < b.pos; });
      std::string cur_owner = v.owner;
      const InvEvent* pending = nullptr;
      for (const Entry& en : tl) {
        if (en.kind == 1) {
          cur_owner = en.new_owner;
          pending = nullptr;
        } else if (en.kind == 0) {
          if (!cur_owner.empty() && en.ev->cls_tok == v.vt->owner_tok &&
              en.ev->owner_toks.count(cur_owner) != 0) {
            pending = en.ev;
          }
        } else if (pending != nullptr) {
          Report(out, f.file, en.line, "invalidation",
                 "in '" + FuncLabel(f) + "': view '" + v.name + "' (" +
                     v.vt->view_qual + " over owner '" + cur_owner +
                     "', created at line " + std::to_string(v.line) +
                     ") is used after " + pending->desc + " at line " +
                     std::to_string(pending->line) +
                     " invalidated its storage — re-derive the view after "
                     "the invalidating call, or add a justified "
                     "[invalidation_exceptions] entry keyed '" + f.qual +
                     " -> " + v.name + "'");
          break;  // one finding per view
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Pass 6: unchecked-status
// ---------------------------------------------------------------------------

namespace {

bool RetIsStatus(const std::string& ret) {
  return HasTok(ret, "Status") || HasTok(ret, "Result");
}

}  // namespace

void RunUncheckedStatus(const Program& prog, const Config& cfg,
                        std::vector<Finding>* out) {
  for (const Func& f : prog.funcs) {
    if (!ReportableV3(f.file) || f.body_end <= f.body_begin) continue;
    const auto cit = prog.code.find(f.file);
    if (cit == prog.code.end()) continue;
    const std::string& code = cit->second;
    for (std::size_t ci = 0; ci < f.calls.size() && ci < f.resolved.size();
         ++ci) {
      const CallSite& cs = f.calls[ci];
      const std::vector<int>& targets = f.resolved[ci];
      if (targets.empty()) continue;
      bool all_status = true;
      for (const int j : targets) {
        all_status = all_status && RetIsStatus(prog.funcs[std::size_t(j)].ret);
      }
      if (!all_status) continue;

      // The full statement must be `<chain>(args);` with nothing consuming
      // the value: find the call's closing paren, demand ';' right after,
      // then walk the receiver chain back to the statement start.
      std::size_t te = cs.pos;
      while (te < code.size() && IsIdentChar(code[te])) ++te;
      std::size_t op = te;
      while (op < code.size() &&
             std::isspace(static_cast<unsigned char>(code[op]))) {
        ++op;
      }
      if (op >= code.size() || code[op] != '(') continue;
      const std::size_t cp = CloseDelim(code, op, code.size());
      if (cp >= code.size() || NextNonSpace(code, cp + 1) != ';') continue;

      std::size_t r = cs.pos;
      bool gave_up = false;
      for (;;) {
        std::size_t s = r;
        while (s > 0 && std::isspace(static_cast<unsigned char>(code[s - 1]))) {
          --s;
        }
        std::size_t conn = 0;
        if (s >= 2 && code[s - 1] == ':' && code[s - 2] == ':') {
          conn = 2;
        } else if (s >= 1 && code[s - 1] == '.') {
          conn = 1;
        } else if (s >= 2 && code[s - 1] == '>' && code[s - 2] == '-') {
          conn = 2;
        } else {
          r = s;
          break;
        }
        std::size_t b = s - conn;
        while (b > 0 && std::isspace(static_cast<unsigned char>(code[b - 1]))) {
          --b;
        }
        std::size_t ib = b;
        while (ib > 0 && IsIdentChar(code[ib - 1])) --ib;
        if (ib == b) {
          gave_up = true;  // `(*p)->Foo()` and friends: treat as consumed
          break;
        }
        r = ib;
      }
      if (gave_up) continue;

      // Only a `(void)` cast is this pass's business: anything else before
      // the chain consumes the value or is a bare discard, which
      // -Werror=unused-result already rejects.
      const std::size_t pp = PrevNonSpacePos(code, r);
      if (pp == std::string::npos || code[pp] != ')') continue;
      // Walk back to the matching '(' and accept only a `(void)` cast.
      int depth = 0;
      std::size_t open = pp;
      bool found = false;
      for (std::size_t k = pp + 1; k-- > 0;) {
        if (code[k] == ')') ++depth;
        if (code[k] == '(' && --depth == 0) {
          open = k;
          found = true;
          break;
        }
      }
      if (!found || Trim(code.substr(open + 1, pp - open - 1)) != "void") {
        continue;  // parenthesized receiver or other consumer
      }

      bool excepted = false;
      for (const int j : targets) {
        const Func& gj = prog.funcs[std::size_t(j)];
        excepted = excepted ||
                   cfg.status_exceptions.count(f.qual + " -> " + gj.qual) ||
                   cfg.status_exceptions.count(f.file + " -> " + gj.qual) ||
                   cfg.status_exceptions.count(f.file + " -> *") ||
                   cfg.status_exceptions.count("* -> " + gj.qual);
      }
      if (excepted) continue;
      const Func& g = prog.funcs[std::size_t(targets[0])];
      Report(out, f.file, cs.line, "unchecked-status",
             "in '" + FuncLabel(f) + "': (void)-cast discards the " +
                 "Status/Result of '" + g.qual +
                 "' without a [status_exceptions] entry — handle the "
                 "error or add a justified exception keyed '" + f.qual +
                 " -> " + g.qual + "'");
    }
  }
}

// ---------------------------------------------------------------------------
// v3 selftest fixtures
// ---------------------------------------------------------------------------

namespace {

struct V3Case {
  const char* name;
  std::vector<std::pair<std::string, std::string>> files;
  std::string config;
  // (substring, min occurrences) that must appear in the findings dump.
  std::vector<std::pair<std::string, int>> expects;
  std::vector<std::string> absent;
};

const char* const kViewCfg = R"(
[views]
"tensor::TensorView" = "tensor::Workspace"
sinks = ["Submit", "thread"]

[invalidates]
"Workspace::Rewind" = "releases arena storage past the mark"
)";

const char* const kFixturePrelude = R"(
namespace tensor {
class TensorView {
 public:
  const float* data() const { return nullptr; }
};
class Workspace {
 public:
  TensorView AllocView(unsigned long n) { (void)n; return TensorView(); }
  void Rewind(unsigned long mark) { (void)mark; }
};
}
)";

int RunV3Cases() {
  const V3Case cases[] = {
      {"escape-member-store",
       {{"src/fx/member.cpp", std::string(kFixturePrelude) + R"(
struct Holder {
  tensor::TensorView view_;
  std::vector<tensor::TensorView> all_;
};
struct Plan {
  tensor::TensorView cached_;
};
inline tensor::TensorView g_last;
)"}},
       std::string(kViewCfg) + R"(
[view_exceptions]
"Plan::cached_" = "plan owns the backing workspace for its whole lifetime"
)",
       {{"Holder::view_", 1}, {"Holder::all_", 1}, {"g_last", 1},
        {"view-escape", 3}},
       {"Plan::cached_"}},

      {"escape-threadpool-lambda",
       {{"src/fx/spawn.cpp", std::string(kFixturePrelude) + R"(
struct ThreadPool {
  template <typename F>
  int Submit(F f) { f(); return 0; }
};
void Spawn(ThreadPool* pool, tensor::Workspace& ws) {
  tensor::TensorView v = ws.AllocView(4);
  pool->Submit([&] { v.data(); });
}
void SpawnOk(ThreadPool* pool, tensor::Workspace& ws) {
  tensor::TensorView v = ws.AllocView(4);
  v.data();
  pool->Submit([] { return 1; });
}
)"}},
       kViewCfg,
       {{"'Spawn'", 1}, {"captured by a lambda handed to 'Submit'", 1}},
       {"'SpawnOk'"}},

      {"escape-return-local-owner",
       {{"src/fx/ret.cpp", std::string(kFixturePrelude) + R"(
tensor::TensorView Make() {
  tensor::Workspace ws;
  tensor::TensorView v = ws.AllocView(8);
  return v;
}
tensor::TensorView MakeDirect() {
  tensor::Workspace ws;
  return ws.AllocView(8);
}
tensor::TensorView Ok(tensor::Workspace& ws) {
  return ws.AllocView(8);
}
)"}},
       kViewCfg,
       {{"'Make'", 1}, {"'MakeDirect'", 1}, {"local owner 'ws'", 2}},
       {"'Ok'"}},

      {"use-after-rewind",
       {{"src/fx/rewind.cpp", std::string(kFixturePrelude) + R"(
void Bad(tensor::Workspace& ws) {
  tensor::TensorView v = ws.AllocView(4);
  ws.Rewind(0);
  v.data();
}
void OkReassign(tensor::Workspace& ws) {
  tensor::TensorView v = ws.AllocView(4);
  ws.Rewind(0);
  v = ws.AllocView(4);
  v.data();
}
void OkOther(tensor::Workspace& ws, tensor::Workspace& other) {
  tensor::TensorView v = ws.AllocView(4);
  other.Rewind(0);
  v.data();
}
)"}},
       kViewCfg,
       {{"'Bad'", 1}, {"ws.Rewind()", 1}, {"invalidation", 1}},
       {"'OkReassign'", "'OkOther'"}},

      {"interprocedural-invalidation",
       {{"src/fx/interproc.cpp", std::string(kFixturePrelude) + R"(
void Churn(tensor::Workspace& ws) { ws.Rewind(0); }
void Bad2(tensor::Workspace& ws) {
  tensor::TensorView v = ws.AllocView(4);
  Churn(ws);
  v.data();
}
void Ok2(tensor::Workspace& ws) {
  Churn(ws);
  tensor::TensorView v = ws.AllocView(4);
  v.data();
}
)"}},
       kViewCfg,
       {{"'Bad2'", 1}, {"Churn", 1}, {"declared invalidator", 1}},
       {"'Ok2'"}},

      {"unchecked-status",
       {{"src/fx/status.cpp", R"(
namespace util {
class Status {
 public:
  bool ok() const { return true; }
};
}
class Engine {
 public:
  util::Status Flush() { return util::Status(); }
  util::Status BestEffort() { return util::Status(); }
};
void Drive(Engine& e) {
  (void)e.Flush();
  (void)e.BestEffort();
  util::Status s = e.Flush();
  if (!s.ok()) { return; }
}
)"},
        },
       R"(
[status_exceptions]
"* -> Engine::BestEffort" = "best-effort background flush; failure retried"
)",
       {{"(void)-cast discards", 1}},
       {"BestEffort"}},
  };

  int failures = 0;
  for (const V3Case& c : cases) {
    Config cfg;
    std::string err;
    if (!ParseConfig(c.config, &cfg, &err)) {
      std::fprintf(stderr, "FAIL %s: config parse error: %s\n", c.name,
                   err.c_str());
      ++failures;
      continue;
    }
    std::vector<SourceFile> files;
    for (const auto& [rel, text] : c.files) {
      files.push_back(SourceFile{rel, text});
    }
    const Program prog = BuildProgram(files, cfg);
    std::vector<Finding> findings;
    RunViewEscape(prog, cfg, &findings, nullptr);
    RunInvalidation(prog, cfg, &findings);
    RunUncheckedStatus(prog, cfg, &findings);
    std::string dump;
    for (const Finding& fi : findings) {
      dump += fi.file + ":" + std::to_string(fi.line) + " [" + fi.rule +
              "] " + fi.message + "\n";
    }
    bool ok = true;
    for (const auto& [needle, min_count] : c.expects) {
      int count = 0;
      std::size_t p = dump.find(needle);
      while (p != std::string::npos) {
        ++count;
        p = dump.find(needle, p + 1);
      }
      if (count < min_count) {
        std::fprintf(stderr,
                     "FAIL %s: expected >=%d x \"%s\", got %d\n---\n%s---\n",
                     c.name, min_count, needle.c_str(), count, dump.c_str());
        ok = false;
      }
    }
    for (const std::string& needle : c.absent) {
      if (dump.find(needle) != std::string::npos) {
        std::fprintf(stderr, "FAIL %s: unexpected \"%s\"\n---\n%s---\n",
                     c.name, needle.c_str(), dump.c_str());
        ok = false;
      }
    }
    if (!ok) ++failures;
  }
  return failures;
}

}  // namespace

int RunSelftestV3() {
  const int failures = RunV3Cases();
  if (failures == 0) {
    std::fprintf(stderr, "metrolint: v3 selftest OK (6 fixtures)\n");
  }
  return failures;
}

}  // namespace metrolint
