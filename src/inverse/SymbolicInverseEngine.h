//===- inverse/SymbolicInverseEngine.h - Symbolic inverse VCs ---*- C++ -*-===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The symbolic counterpart of inverse/InverseVerifier.h: where the
/// exhaustive path executes `op ; inverse` on every enumerated abstract
/// state (Fig. 3-2), this engine encodes `op ; inverse ≡ identity` as a
/// verification condition over an *uninterpreted* initial state and
/// discharges it through the same session machinery the commutativity
/// engine uses (commute/SessionPool.h):
///
///  * Accumulator: the restored counter is the literal term c0 + v - v;
///    the identity VC folds in the linear-atom canonicalizer.
///  * Set / Map: the inverse's branch on the recorded return value becomes
///    a boolean/object ITE over the update chain; identity is checked at
///    the touched element/key *and* at a fresh symbolic one, so the VC
///    exercises the congruence bridges (equal keys read equal values), not
///    just constant folding.
///  * ArrayList: lengths and indices are case-split up to a bound with the
///    elements kept symbolic (the commutativity engine's bounded mode);
///    the inverse's precondition (Property 3 obliges it to hold) is
///    checked per split.
///
/// The exhaustive and symbolic verdicts are cross-checked in tests and by
/// `semcommute-verify --engine both`.
///
//===----------------------------------------------------------------------===//

#ifndef SEMCOMM_INVERSE_SYMBOLICINVERSEENGINE_H
#define SEMCOMM_INVERSE_SYMBOLICINVERSEENGINE_H

#include "commute/SessionPool.h"
#include "inverse/InverseSpec.h"

#include <cstdint>

namespace semcomm {

/// Symbolically verifies Property 3 for \p Spec: executing the operation
/// and then its inverse restores the initial abstract state. \p SeqLenBound
/// bounds the ArrayList case splits; statistics land in the returned
/// SymbolicResult exactly as for commutativity methods. \p Certify turns on
/// proof logging + independent checking (ProofQueries / ProofClauses /
/// ProofChecked in the result), so inverse verdicts carry certificates
/// like commutativity verdicts do.
SymbolicResult verifyInverseSymbolic(ExprFactory &F, const InverseSpec &Spec,
                                     int SeqLenBound = 3,
                                     int64_t ConflictBudget = 200000,
                                     SolveMode Mode = SolveMode::SharedCatalog,
                                     bool Certify = false);

} // namespace semcomm

#endif // SEMCOMM_INVERSE_SYMBOLICINVERSEENGINE_H
