//===- smt/Tseitin.h - Structural CNF encoding ------------------*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tseitin transformation from the logic's boolean structure into CNF over
/// atom variables. Non-propositional boolean expressions (equalities,
/// comparisons, state-query atoms, boolean variables) become SAT variables;
/// the caller (SmtSolver) adds the theory-consistency bridge clauses over
/// those atoms directly, as plain clauses over atomLit() literals.
///
/// The definition cache is *scope-layered* to support the session scope
/// trees: every layer has a parent, lookups walk the active layer's
/// ancestor chain (never a sibling), and fresh definition variables are
/// recorded as *owned* by the active layer. Because a definition created
/// under layer L can therefore only be referenced by encodings performed
/// under L or its descendants, retiring a scope subtree may evict every
/// clause mentioning the subtree layers' owned vars and recycle those
/// variable indices — the session-level invariant behind
/// SatSolver::retireScopes(). Atom variables stay global (one table for
/// the whole solver): they are shared with the theory bridges and keep
/// their index for the session's life. Only a released selector atom
/// leaves the table (releaseAtom()).
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_SMT_TSEITIN_H
#define SEMCOMM_SMT_TSEITIN_H

#include "logic/Expr.h"
#include "smt/SatSolver.h"
#include "smt/SessionAudit.h"

#include <unordered_map>
#include <utility>
#include <vector>

namespace semcomm {

/// Encodes expressions into a SatSolver, memoizing shared subformulas per
/// scope layer (hash-consing makes the memoization exact).
class Tseitin {
public:
  using LayerId = unsigned;
  static constexpr LayerId RootLayer = 0;

  explicit Tseitin(SatSolver &Solver) : Solver(Solver) {
    Layers.push_back({{}, {}, {}, RootLayer, true});
  }

  /// Opens a new cache layer under \p Parent and returns its id. The layer
  /// does not become active until setActiveLayer().
  LayerId pushLayer(LayerId Parent);
  /// Routes subsequent encode() inserts (and owned-var recording) to \p L.
  void setActiveLayer(LayerId L);
  LayerId activeLayer() const { return Active; }
  /// The definition variables created while \p L was active — the
  /// scope-private set a retirement hands to SatSolver::retireScopes().
  const std::vector<int> &ownedVars(LayerId L) const {
    return Layers[L].Owned;
  }
  /// Forgets a layer's cache and owned list (the caller retires the vars
  /// through the solver first). The layer must not be active and must have
  /// no live children.
  void dropLayer(LayerId L);

  /// Returns a literal equisatisfiably representing \p E. Cache lookups
  /// walk the active layer's ancestor chain; misses insert into the active
  /// layer.
  Lit encode(ExprRef E);

  /// Asserts \p E at the top level.
  void assertTrue(ExprRef E) { Solver.addClause({encode(E)}); }

  /// Asserts `Guards[0] -> (Guards[1] -> ... -> Body)` at the top level
  /// without building that chain: the definitions, clauses and cache
  /// events are those assertTrue() of the chain's formula produces, in the
  /// same order, the factory's folds included (`g -> true` is true and
  /// `g -> false` is `!g`). Each guard is an atom and \p Guards is a
  /// selector path: its innermost guard names the whole path, so asserting
  /// the same body under the same innermost guard again, from the layer
  /// that cached it or a descendant, is a cache hit, as the chain's
  /// formula would be.
  void assertGuarded(const std::vector<ExprRef> &Guards, ExprRef Body);

  /// The global variable of theory atom \p Atom (a boolean leaf: no
  /// connective, no constant), allocated on first use. Touches no layer
  /// cache, so the SMT layer's bridge clauses can name atoms without
  /// planting definitions in any scope's layer.
  Lit atomLit(ExprRef Atom);

  /// The atom map: every non-propositional boolean leaf and its variable.
  /// Only looked up, never iterated (pointer keys hash in no stable order).
  const std::unordered_map<ExprRef, int> &atoms() const { return Atoms; }

  /// Erases \p Atom's global atom-map entry and returns true when one was
  /// present. Only legal after the variable has been retired through the
  /// solver (its index recycled or about to be): atom vars are global
  /// precisely because bridges and scoped encodings may reference them, so
  /// the caller must guarantee no live clause and no live cache layer
  /// still names the variable. The SMT layer's selector release provides
  /// that guarantee (the selector's cache layer dies with its subtree, and
  /// epoch-tagged selector names are never encoded again); with the entry
  /// gone, a future encode of the same expression allocates a fresh
  /// variable instead of aliasing the recycled index.
  bool releaseAtom(ExprRef Atom) { return Atoms.erase(Atom) != 0; }

  /// Attaches a discipline event log (lint replays record layer pushes,
  /// definition creations, and cache references through it). Not owned.
  void setAuditLog(audit::Log *L) { Audit = L; }

private:
  /// A guarded assertion's cache key: (innermost guard, body).
  using GuardKey = std::pair<ExprRef, ExprRef>;

  struct Layer {
    /// Only looked up, never iterated, so hashing by pointer cannot leak
    /// into any order the encoder exposes.
    std::unordered_map<ExprRef, Lit> Cache;
    /// The outermost literal of each guarded assertion made under this
    /// layer: what the chain's formula would have cached. A scope asserts
    /// a handful of bodies, so a scan beats a hash table here, and keeps
    /// the layer record (which outlives a dropped layer) small.
    std::vector<std::pair<GuardKey, Lit>> Guarded;
    std::vector<int> Owned; ///< Definition vars created under this layer.
    LayerId Parent;
    bool Alive;
  };

  Lit freshDefinition();
  /// Walks the active layer's ancestor chain until \p Find returns an
  /// entry of a layer's cache, and logs the reference that hit makes.
  template <typename FindFn> const Lit *findOnChain(FindFn Find) const;
  const Lit *lookup(ExprRef E) const;
  static bool isAtom(ExprRef E);

  SatSolver &Solver;
  std::vector<Layer> Layers;
  LayerId Active = RootLayer;
  std::unordered_map<ExprRef, int> Atoms;
  audit::Log *Audit = nullptr; ///< Optional discipline event log.
};

} // namespace semcomm

#endif // SEMCOMM_SMT_TSEITIN_H
