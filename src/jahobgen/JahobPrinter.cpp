//===- jahobgen/JahobPrinter.cpp - Jahob-style method rendering ------------===//
//
// Part of the SemCommute project: a reproduction of Kim & Rinard,
// "Verification of Semantic Commutativity Conditions and Inverse Operations
// on Linked Data Structures" (PLDI 2011).
//
//===----------------------------------------------------------------------===//

#include "jahobgen/JahobPrinter.h"

#include "logic/Printer.h"
#include "support/Unreachable.h"

using namespace semcomm;

static const char *javaType(Sort S) {
  switch (S) {
  case Sort::Bool:
    return "boolean";
  case Sort::Int:
    return "int";
  case Sort::Obj:
    return "Object";
  case Sort::State:
    break;
  }
  semcomm_unreachable("no Java type for this sort");
}

/// Renders a condition as it appears inside a generated method: state names
/// become the first structure (sa) and return values the first-order locals
/// (r1a, r2a).
static std::string methodCondition(ExprRef Phi, const ConditionEntry &E,
                                   ExprFactory &F) {
  ExprRef Sa = F.var("sa", Sort::State);
  std::vector<Binding> Subst;
  for (const char *State : {"s1", "s2", "s3"})
    Subst.push_back({F.var(State, Sort::State), Sa});
  if (E.op1().RecordsReturn)
    Subst.push_back({F.var("r1", E.op1().ReturnSort),
                     F.var("r1a", E.op1().ReturnSort)});
  if (E.op2().RecordsReturn)
    Subst.push_back({F.var("r2", E.op2().ReturnSort),
                     F.var("r2a", E.op2().ReturnSort)});
  return printAbstract(F.substitute(Phi, Subst));
}

/// Renders "Object v1, Object v2" style parameter declarations for one
/// operation position.
static std::string paramDecls(const Operation &Op, int Position) {
  std::string Out;
  for (size_t I = 0; I != Op.ArgSorts.size(); ++I) {
    Out += ", ";
    Out += javaType(Op.ArgSorts[I]);
    Out += " " + Op.ArgBaseNames[I] + std::to_string(Position);
  }
  return Out;
}

/// Renders an invocation like "boolean r1a = sa.contains(v1);".
static std::string invocation(const Operation &Op, const char *StateName,
                              int Position, char OrderTag) {
  std::string Stmt = "  ";
  if (Op.HasReturn && Op.RecordsReturn) {
    Stmt += javaType(Op.ReturnSort);
    Stmt += std::string(" r") + std::to_string(Position) + OrderTag + " = ";
  }
  Stmt += std::string(StateName) + "." + Op.CallName + "(";
  for (size_t I = 0; I != Op.ArgBaseNames.size(); ++I) {
    if (I)
      Stmt += ", ";
    Stmt += Op.ArgBaseNames[I] + std::to_string(Position);
  }
  return Stmt + ");\n";
}

/// The abstract-state equality conjunction for a family.
static std::string abstractStateEq(const Family &Fam) {
  if (Fam.Kind == StateKind::Counter)
    return "sa..value = sb..value";
  return "sa..contents = sb..contents & sa..size = sb..size";
}

std::string semcomm::renderTestingMethod(const TestingMethod &M,
                                         const std::string &StructureName,
                                         ExprFactory &F) {
  const ConditionEntry &E = *M.Entry;
  const Operation &Op1 = E.op1();
  const Operation &Op2 = E.op2();
  bool Soundness = M.Role == MethodRole::Soundness;

  std::string Cond = methodCondition(E.get(M.Kind), E, F);
  std::string CondAssume = Soundness ? Cond : "~(" + Cond + ")";

  std::string S;
  S += "void " + M.name() + "(" + StructureName + " sa, " + StructureName +
       " sb" + paramDecls(Op1, 1) + paramDecls(Op2, 2) + ")\n";
  S += "  /*: requires \"sa ~= null & sb ~= null & sa ~= sb &\n";
  S += "                sa..init & sb..init &\n";
  S += "                " + abstractStateEq(M.family()) + "\"\n";
  S += "      modifies \"sa..contents\", \"sb..contents\", \"sa..size\", "
       "\"sb..size\"\n";
  S += "      ensures \"True\" */\n";
  S += "{\n";

  // First execution order on sa, with the (possibly negated) condition
  // assumed at the point matching its kind (Fig. 3-1 lines 7/10/13).
  if (M.Kind == ConditionKind::Before)
    S += "  /*: assume \"" + CondAssume + "\" */\n";
  S += invocation(Op1, "sa", 1, 'a');
  if (M.Kind == ConditionKind::Between)
    S += "  /*: assume \"" + CondAssume + "\" */\n";
  S += invocation(Op2, "sa", 2, 'a');
  if (M.Kind == ConditionKind::After)
    S += "  /*: assume \"" + CondAssume + "\" */\n";

  // Reverse execution order on sb.
  S += invocation(Op2, "sb", 2, 'b');
  S += invocation(Op1, "sb", 1, 'b');

  // Final assertion: agreement for soundness, disagreement for
  // completeness (Fig. 3-1 line 18).
  std::string Agree;
  if (Op1.RecordsReturn)
    Agree += "r1a = r1b & ";
  if (Op2.RecordsReturn)
    Agree += "r2a = r2b & ";
  Agree += abstractStateEq(M.family());
  S += "  /*: assert \"" + (Soundness ? Agree : "~(" + Agree + ")") +
       "\" */\n";
  S += "}\n";
  return S;
}

std::string semcomm::renderHashSetSpec() {
  return R"JAHOB(public class HashSet {
  /*: public ghost specvar init :: "bool" = "False"; */
  /*: public ghost specvar contents :: "obj set" = "{}"; */
  /*: public specvar size :: "int"; */
  private Node[] table;
  private int _size;

  public HashSet()
  /*: modifies "init", "contents", "size"
      ensures "init & contents = {} & size = 0" */ { }

  public boolean add(Object v)
  /*: requires "init & v ~= null"
      modifies "contents", "size"
      ensures "(v ~: old contents --> contents = old contents Un {v} &
                size = old size + 1 & result) &
               (v : old contents --> contents = old contents &
                size = old size & ~result)" */ { }

  public boolean contains(Object v)
  /*: requires "init & v ~= null"
      ensures "result = (v : contents)" */ { }

  public boolean remove(Object v)
  /*: requires "init & v ~= null"
      modifies "contents", "size"
      ensures "(v : old contents --> contents = old contents - {v} &
                size = old size - 1 & result) &
               (v ~: old contents --> contents = old contents &
                size = old size & ~result)" */ { }

  public int size()
  /*: requires "init"
      ensures "result = size" */ { }
}
)JAHOB";
}

/// Java bodies for the eight inverse programs of Table 5.10, keyed by
/// family name + operation name.
static std::string inverseBody(const InverseSpec &Spec) {
  const std::string Key = Spec.Fam->Name + "." + Spec.OpName;
  if (Key == "Accumulator.increase")
    return "  s.increase(v);\n  s.increase(-v);\n";
  if (Key == "Set.add")
    return "  boolean r = s.add(v);\n  if (r) { s.remove(v); }\n";
  if (Key == "Set.remove")
    return "  boolean r = s.remove(v);\n  if (r) { s.add(v); }\n";
  if (Key == "Map.put")
    return "  Object r = s.put(k, v);\n"
           "  if (r != null) { s.put(k, r); } else { s.remove(k); }\n";
  if (Key == "Map.remove")
    return "  Object r = s.remove(k);\n  if (r != null) { s.put(k, r); }\n";
  if (Key == "ArrayList.add_at")
    return "  s.add_at(i, v);\n  s.remove_at(i);\n";
  if (Key == "ArrayList.remove_at")
    return "  Object r = s.remove_at(i);\n  s.add_at(i, r);\n";
  if (Key == "ArrayList.set")
    return "  Object r = s.set(i, v);\n  s.set(i, r);\n";
  semcomm_unreachable("no Java body for this inverse");
}

std::string semcomm::renderInverseMethod(const InverseSpec &Spec,
                                         const std::string &StructureName) {
  const Operation &Op = Spec.Fam->op(Spec.OpName);
  std::string S;
  S += "void " + Op.CallName + "0(" + StructureName + " s" +
       paramDecls(Op, 0) + ")\n";
  // The paper renders formals without position suffixes; strip the "0".
  size_t Pos;
  while ((Pos = S.find("0,")) != std::string::npos && Pos > S.find('('))
    S.erase(Pos, 1);
  if ((Pos = S.rfind("0)")) != std::string::npos && Pos > S.find('('))
    S.erase(Pos, 1);
  S += "  /*: requires \"s ~= null & s..init\"\n";
  S += "      modifies \"s..contents\", \"s..size\"\n";
  S += "      ensures \"True\" */\n";
  S += "{\n";
  std::string Body = inverseBody(Spec);
  S += Body;
  S += "  /*: assert \"s..contents = s..(old contents) & "
       "s..size = s..(old size)\" */\n";
  S += "}\n";
  return S;
}

std::string semcomm::renderCompletenessTemplate() {
  return R"JAHOB(void method1_method2_(before|between|after)_c_id
    (sa_decl, sb_decl, argv1_decls, argv2_decls)
  /*: requires "sa ~= null & sb ~= null & sa ~= sb &
                sa_abstract_state = sb_abstract_state"
      modifies "sa_frame_condition", "sb_frame_condition"
      ensures "True" */
{
  [/*: assume "~(before_commutativity_condition)" */]
  /*: assume "method1_precondition" */
  r1a_type r1a = sa.method1(argv1);
  [/*: assume "~(between_commutativity_condition)" */]
  /*: assume "method2_precondition" */
  r2a_type r2a = sa.method2(argv2);
  [/*: assume "~(after_commutativity_condition)" */]
  /*: assume "method2_precondition" */
  r2b_type r2b = sb.method2(argv2);
  /*: assume "method1_precondition" */
  r1b_type r1b = sb.method1(argv1);
  /*: assert "~(r1a = r1b & r2a = r2b &
               sa_abstract_state = sb_abstract_state)" */
}
)JAHOB";
}

std::string semcomm::renderInverseTemplate() {
  return R"JAHOB(void method_id(s_decl, argv_decls)
  /*: requires "s ~= null & method_precondition"
      modifies "s_frame_condition"
      ensures "True" */
{
  r_type r = s.method(argv);
  execute_inverse_operation();
  /*: assert "s_abstract_state = s_initial_abstract_state" */
}
)JAHOB";
}
